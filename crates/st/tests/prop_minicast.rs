//! Property-based tests of the synchronous-transmission stack.

use han_net::generators;
use han_net::NodeId;
use han_radio::channel::ChannelModel;
use han_sim::rng::DetRng;
use han_st::item::{Item, ItemStore};
use han_st::minicast::run_round;
use han_st::StConfig;
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
