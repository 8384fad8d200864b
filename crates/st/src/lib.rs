//! # han-st — synchronous-transmission protocol stack
//!
//! The communication substrate of the paper's decentralized HAN: Glossy
//! floods and the MiniCast many-to-many sharing protocol, executed
//! packet-by-packet against the `han-radio` capture/interference model on a
//! `han-net` topology.
//!
//! * [`item`] — versioned data items and per-node [`item::ItemStore`]s;
//! * [`StConfig`]: round period (paper: 2 s), slot timing, Glossy `n_tx`,
//!   jitter/desync model;
//! * [`minicast`] — the all-to-all round: sync beacon + one aggregated
//!   Glossy flood per node in rotating TDMA order
//!   ([`minicast::run_round`], or [`minicast::run_round_with`] over a
//!   [`LinkTable`] built once per deployment); the flood kernel itself is
//!   private to the crate;
//! * [`stats`] — multi-round reliability / radio-cost accounting;
//! * [`sync`] — crystal-drift vs. sync-beacon analysis
//!   ([`sync::SyncTracker`]).
//!
//! # Public API
//!
//! What `han-core`'s packet CP and the `fig1_minicast` bin call: the
//! round ([`minicast::run_round`], [`minicast::run_round_with`] with its
//! [`LinkTable`] and scratch), the item stores, [`StConfig`], and the
//! statistics and sync trackers the CP checkpoints. Everything else,
//! the Glossy flood kernel included, is crate-private.
//!
//! # Examples
//!
//! One all-to-all round on the 26-node testbed layout:
//!
//! ```
//! use han_st::item::{Item, ItemStore};
//! use han_st::minicast::run_round;
//! use han_st::StConfig;
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
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod config;
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

#[cfg(test)]
mod proptests {
    // Property-based tests of the synchronous-transmission stack.
    use crate::item::{Item, ItemStore};
    use crate::minicast::run_round;
    use crate::StConfig;
    use han_net::generators;
    use han_net::NodeId;
    use han_radio::channel::ChannelModel;
    use han_sim::rng::DetRng;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn stores_only_grow_and_never_regress_versions(
            rounds in 1u64..4,
            seed in any::<u64>()
        ) {
            let topo = generators::grid(3, 3, 10.0, ChannelModel::UnitDisk { range_m: 15.0 });
            let rssi = topo.rssi_matrix();
            let n = topo.len();
            let mut stores = vec![ItemStore::new(); n];
            for (i, store) in stores.iter_mut().enumerate() {
                store.merge(&Item::new(NodeId(i as u32), 1, vec![i as u8; 8]));
            }
            let mut rng = DetRng::new(seed);
            let mut prev_counts: Vec<usize> = stores.iter().map(ItemStore::len).collect();
            let mut prev_seqs: Vec<Vec<Option<u32>>> = vec![vec![None; n]; n];
            for r in 0..rounds {
                run_round(&rssi, &mut stores, NodeId(0), &StConfig::default(), r, &mut rng);
                for (node, store) in stores.iter().enumerate() {
                    prop_assert!(store.len() >= prev_counts[node], "store shrank");
                    prev_counts[node] = store.len();
                    for origin in 0..n {
                        let seq = store.seq_of(NodeId(origin as u32));
                        if let (Some(new), Some(Some(old))) =
                            (seq, prev_seqs[node].get(origin))
                        {
                            prop_assert!(new >= *old, "version regressed");
                        }
                        prev_seqs[node][origin] = seq;
                    }
                }
            }
        }

        #[test]
        fn round_is_deterministic_in_seed(seed in any::<u64>()) {
            let topo = generators::grid(3, 3, 10.0, ChannelModel::indoor_office(3));
            let rssi = topo.rssi_matrix();
            let n = topo.len();
            let run = || {
                let mut stores = vec![ItemStore::new(); n];
                for (i, store) in stores.iter_mut().enumerate() {
                    store.merge(&Item::new(NodeId(i as u32), 1, vec![i as u8; 8]));
                }
                let mut rng = DetRng::new(seed);
                let report = run_round(&rssi, &mut stores, NodeId(0), &StConfig::default(), 0, &mut rng);
                (report.coverage.clone(), report.tx_count.clone())
            };
            prop_assert_eq!(run(), run());
        }
    }
}
