//! MiniCast: many-to-many (all-to-all) data sharing over synchronous floods.
//!
//! MiniCast (Saha & Chakraborty, DCOSS 2017) lets every node share a small
//! data item with every other node once per round, by combining TDMA with
//! Glossy floods and **aggregation**: each flood carries not just the
//! initiator's item but a packet-full of items the initiator has already
//! collected. Items lost in their own flood phase are therefore carried
//! again by later initiators — redundancy that pushes per-round all-to-all
//! reliability very close to one even on lossy multi-hop networks.
//!
//! One round, as implemented here (defaults mirror the paper: 2 s period):
//!
//! 1. **Sync phase** — a short beacon flood from the round initiator aligns
//!    everyone (phase 0).
//! 2. **Data phases** — one Glossy flood per node, in a TDMA order rotated
//!    every round. The phase initiator aggregates its own freshest item plus
//!    as many others as fit in one 802.15.4 frame, chosen round-robin.
//! 3. Every receiver merges the aggregate into its [`ItemStore`].
//!
//! [`run_round`] executes one full round against the topology's RSSI matrix
//! and reports coverage, reliability and radio cost. A long-running plane
//! calls [`run_round_with`] instead: it floods over a [`LinkTable`] built
//! once per deployment and keeps its buffers and its [`RoundReport`] in a
//! [`RoundScratch`], so a round allocates nothing for the floods and the
//! report once the buffers have grown.

use crate::config::StConfig;
use crate::glossy::{self, Flood};
use crate::item::{Item, ItemStore};
use han_net::NodeId;
use han_radio::phy;
use han_radio::units::Dbm;
use han_sim::rng::DetRng;
use han_sim::time::SimDuration;

pub use crate::glossy::LinkTable;

/// Aggregate frame overhead besides items: round counter (4 B), phase (1 B),
/// initiator (1 B), item count (1 B).
pub(crate) const AGGREGATE_HEADER_BYTES: usize = 7;

/// Report of one MiniCast round.
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    /// Round counter this report describes.
    pub round_index: u64,
    /// Number of distinct origins each node knows after the round.
    pub coverage: Vec<usize>,
    /// Number of origins that published (the coverage target).
    pub published: usize,
    /// Mean fraction of published origins delivered per node.
    pub reliability: f64,
    /// Whether every node received every published origin's item.
    pub all_to_all: bool,
    /// Whether each node received the sync beacon this round.
    pub synced: Vec<bool>,
    /// Transmissions per node across all phases.
    pub tx_count: Vec<u32>,
    /// Listening slots per node across all phases.
    pub listen_slots: Vec<u32>,
    /// Radio-on time per node this round (tx air time + listen slots).
    pub radio_on: Vec<SimDuration>,
    /// Number of flood phases executed (sync + data).
    pub phases: usize,
}

impl RoundReport {
    /// Worst per-node coverage fraction this round.
    pub(crate) fn worst_node_reliability(&self) -> f64 {
        if self.published == 0 {
            return 1.0;
        }
        self.coverage
            .iter()
            .map(|&c| c as f64 / self.published as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total radio-on time across all nodes.
    pub(crate) fn total_radio_on(&self) -> SimDuration {
        self.radio_on
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }
}

/// Reusable working memory for [`run_round_with`], and the report it
/// fills.
///
/// The aggregate/origins buffers are rebuilt once per data phase (n times
/// per round) and the flood buffers once per flood; the report's per-node
/// vectors are cleared and refilled in place every round. Item clones
/// into the aggregate are cheap: payloads are refcounted [`Bytes`], so
/// "cloning" an item copies a pointer, never the payload.
///
/// [`Bytes`]: bytes::Bytes
#[derive(Debug, Default, Clone)]
pub struct RoundScratch {
    aggregate: Vec<Item>,
    origins: Vec<NodeId>,
    tx_air: Vec<SimDuration>,
    flood: Flood,
    report: RoundReport,
}

impl RoundScratch {
    fn reset(&mut self, n: usize) {
        self.aggregate.clear();
        self.origins.clear();
        self.tx_air.clear();
        self.tx_air.resize(n, SimDuration::ZERO);
        let report = &mut self.report;
        for v in [&mut report.tx_count, &mut report.listen_slots] {
            v.clear();
            v.resize(n, 0);
        }
    }

    /// Folds the last flood's radio tallies into the round in flight.
    fn absorb(&mut self, frame_payload: usize) {
        let air = phy::air_time(frame_payload).expect("aggregate exceeds frame");
        let out = &self.flood;
        let report = &mut self.report;
        for i in 0..out.tx_count.len() {
            report.tx_count[i] += out.tx_count[i];
            report.listen_slots[i] += out.listen_slots[i];
            self.tx_air[i] += air * u64::from(out.tx_count[i]);
        }
    }
}

/// Builds the aggregate for a phase initiator into caller-owned buffers
/// (cleared first): its own item first, then other stored items chosen
/// round-robin by `(origin + rotation)`.
fn build_aggregate_into(
    store: &ItemStore,
    own: NodeId,
    rotation: u64,
    max_payload: usize,
    out: &mut Vec<Item>,
    origins: &mut Vec<NodeId>,
) {
    out.clear();
    let mut budget = max_payload.saturating_sub(AGGREGATE_HEADER_BYTES);
    if let Some(own_item) = store.get(own) {
        if own_item.wire_bytes() <= budget {
            budget -= own_item.wire_bytes();
            out.push(own_item.clone());
        }
    }
    origins.clear();
    origins.extend(store.iter().map(|item| item.origin));
    if origins.is_empty() {
        return;
    }
    let start = (rotation as usize) % origins.len();
    for k in 0..origins.len() {
        let origin = origins[(start + k) % origins.len()];
        if origin == own {
            continue;
        }
        let item = store.get(origin).expect("origin listed but missing");
        if item.wire_bytes() <= budget {
            budget -= item.wire_bytes();
            out.push(item.clone());
        }
    }
}

/// Content identity of an aggregate (order-sensitive, like real bits on air).
fn aggregate_content_key(items: &[Item], round_index: u64, phase: usize) -> u64 {
    let mut h: u64 = 0x100_0000_01B3 ^ round_index.wrapping_mul(31) ^ (phase as u64);
    for item in items {
        h ^= item.content_key();
        h = h.rotate_left(13).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// On-air application payload size of an aggregate.
fn aggregate_payload_bytes(items: &[Item]) -> usize {
    AGGREGATE_HEADER_BYTES + items.iter().map(Item::wire_bytes).sum::<usize>()
}

/// Executes one MiniCast round.
///
/// `stores[i]` is node `i`'s item store; callers publish a node's own item
/// by merging it into its store before the round. `initiator` floods the
/// sync beacon. The TDMA order of data phases rotates with `round_index`.
///
/// # Panics
///
/// Panics if `stores.len()` does not match the RSSI matrix dimension, or if
/// `config` fails validation.
pub fn run_round(
    rssi: &[Vec<Dbm>],
    stores: &mut [ItemStore],
    initiator: NodeId,
    config: &StConfig,
    round_index: u64,
    rng: &mut DetRng,
) -> RoundReport {
    config.validate().expect("invalid ST configuration");
    let mut scratch = RoundScratch::default();
    run_round_with(
        &mut LinkTable::new(rssi),
        stores,
        initiator,
        config,
        round_index,
        rng,
        &mut scratch,
    );
    scratch.report
}

/// [`run_round`] over a caller-owned [`LinkTable`] and [`RoundScratch`],
/// so a long-running communication plane builds the table once and
/// reuses its working buffers and its report round after round. Returns
/// the round's report, which lives in `scratch` until the next round.
///
/// The caller checks `config` once, with [`StConfig::validate`] and
/// [`StConfig::check_fits_round`]; a round does not re-check it.
///
/// # Panics
///
/// Panics if `stores.len()` does not match the table's node count.
pub fn run_round_with<'s>(
    links: &mut LinkTable,
    stores: &mut [ItemStore],
    initiator: NodeId,
    config: &StConfig,
    round_index: u64,
    rng: &mut DetRng,
    scratch: &'s mut RoundScratch,
) -> &'s RoundReport {
    let n = links.len();
    assert_eq!(stores.len(), n, "one item store per node required");
    scratch.reset(n);

    // Phase 0: the sync beacon.
    let beacon_payload = 8;
    glossy::flood(
        links,
        initiator,
        0x5159_0000 ^ round_index,
        phy::frame_bytes(beacon_payload).expect("beacon fits"),
        config,
        rng,
        &mut scratch.flood,
    );
    scratch.absorb(beacon_payload);
    scratch.report.synced.clone_from(&scratch.flood.received);

    // Data phase k: the flood initiated by node (round + k) mod n carries
    // its aggregate, merged into every receiver's store.
    for k in 0..n {
        let origin = NodeId(((round_index as usize + k) % n) as u32);
        build_aggregate_into(
            &stores[origin.index()],
            origin,
            round_index.wrapping_add(k as u64),
            config.max_packet_payload,
            &mut scratch.aggregate,
            &mut scratch.origins,
        );
        if scratch.aggregate.is_empty() {
            // Nothing to send: the phase stays silent, everyone listens.
            for (i, ls) in scratch.report.listen_slots.iter_mut().enumerate() {
                if i != origin.index() {
                    *ls += config.flood_slots as u32;
                }
            }
            continue;
        }
        let payload = aggregate_payload_bytes(&scratch.aggregate);
        let content = aggregate_content_key(&scratch.aggregate, round_index, k);
        glossy::flood(
            links,
            origin,
            content,
            phy::frame_bytes(payload).expect("aggregate fits"),
            config,
            rng,
            &mut scratch.flood,
        );
        scratch.absorb(payload);
        for (node, store) in stores.iter_mut().enumerate() {
            if scratch.flood.received[node] && node != origin.index() {
                store.merge_all(scratch.aggregate.iter());
            }
        }
    }

    // Coverage and reliability against the set of origins that published.
    let report = &mut scratch.report;
    report.round_index = round_index;
    report.published = (0..n)
        .filter(|&i| stores[i].get(NodeId(i as u32)).is_some())
        .count();
    report.coverage.clear();
    report.coverage.extend(stores.iter().map(ItemStore::len));
    let published = report.published;
    report.reliability = if published == 0 {
        1.0
    } else {
        report
            .coverage
            .iter()
            .map(|&c| c.min(published) as f64 / published as f64)
            .sum::<f64>()
            / n as f64
    };
    report.all_to_all = report.coverage.iter().all(|&c| c >= published);
    report.radio_on.clear();
    report.radio_on.extend(
        scratch
            .tx_air
            .iter()
            .zip(&report.listen_slots)
            .map(|(&air, &listen)| air + config.slot_len * u64::from(listen)),
    );
    report.phases = n + 1;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_net::generators;
    use han_radio::channel::ChannelModel;

    fn disk(range: f64) -> ChannelModel {
        ChannelModel::UnitDisk { range_m: range }
    }

    /// A phase initiator's aggregate, built into fresh buffers.
    fn build_aggregate(
        store: &ItemStore,
        own: NodeId,
        rotation: u64,
        max_payload: usize,
    ) -> Vec<Item> {
        let mut out = Vec::new();
        build_aggregate_into(store, own, rotation, max_payload, &mut out, &mut Vec::new());
        out
    }

    fn publish_all(stores: &mut [ItemStore], seq: u32) {
        for (i, store) in stores.iter_mut().enumerate() {
            let payload = vec![i as u8, seq as u8, 0xAB, 0xCD, 1, 2, 3, 4];
            store.merge(&Item::new(NodeId(i as u32), seq, payload));
        }
    }

    #[test]
    fn single_round_all_to_all_on_clean_grid() {
        let topo = generators::grid(3, 3, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut stores = vec![ItemStore::new(); 9];
        publish_all(&mut stores, 1);
        let mut rng = DetRng::new(1);
        let report = run_round(
            &rssi,
            &mut stores,
            NodeId(0),
            &StConfig::default(),
            0,
            &mut rng,
        );
        assert!(report.all_to_all, "coverage={:?}", report.coverage);
        assert_eq!(report.published, 9);
        assert!((report.reliability - 1.0).abs() < 1e-12);
        assert_eq!(report.phases, 10);
    }

    #[test]
    fn flocklab_round_reaches_all_nodes() {
        let topo = han_net::flocklab::flocklab26_deterministic();
        let rssi = topo.rssi_matrix();
        let mut stores = vec![ItemStore::new(); 26];
        publish_all(&mut stores, 1);
        let mut rng = DetRng::new(7);
        let report = run_round(
            &rssi,
            &mut stores,
            NodeId(0),
            &StConfig::default(),
            0,
            &mut rng,
        );
        assert!(
            report.reliability > 0.95,
            "reliability {} too low",
            report.reliability
        );
        assert!(report.worst_node_reliability() > 0.8);
    }

    #[test]
    fn items_spread_even_without_own_flood_success() {
        // Aggregation redundancy: run two rounds; by the second round every
        // store should be complete even under heavy desync in round one.
        let topo = han_net::flocklab::flocklab26_deterministic();
        let rssi = topo.rssi_matrix();
        let mut stores = vec![ItemStore::new(); 26];
        publish_all(&mut stores, 1);
        let noisy = StConfig {
            desync_probability: 0.05,
            ..StConfig::default()
        };
        let mut rng = DetRng::new(3);
        run_round(&rssi, &mut stores, NodeId(0), &noisy, 0, &mut rng);
        let second = run_round(&rssi, &mut stores, NodeId(0), &noisy, 1, &mut rng);
        assert!(
            second.reliability > 0.99,
            "two rounds should converge, got {}",
            second.reliability
        );
    }

    #[test]
    fn empty_stores_publish_nothing() {
        let topo = generators::line(3, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut stores = vec![ItemStore::new(); 3];
        let mut rng = DetRng::new(1);
        let report = run_round(
            &rssi,
            &mut stores,
            NodeId(0),
            &StConfig::default(),
            0,
            &mut rng,
        );
        assert_eq!(report.published, 0);
        assert!(report.all_to_all);
        assert!((report.reliability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_respects_frame_budget() {
        let mut store = ItemStore::new();
        for i in 0..40 {
            store.merge(&Item::new(NodeId(i), 1, vec![0u8; 8]));
        }
        let items = build_aggregate(&store, NodeId(0), 0, 120);
        let payload = aggregate_payload_bytes(&items);
        assert!(payload <= 120, "payload {payload} over budget");
        // 120 - 7 header = 113; each item is 12 B => 9 items.
        assert_eq!(items.len(), 9);
        assert_eq!(items[0].origin, NodeId(0), "own item leads the aggregate");
    }

    #[test]
    fn aggregate_rotation_varies_selection() {
        let mut store = ItemStore::new();
        for i in 0..40 {
            store.merge(&Item::new(NodeId(i), 1, vec![0u8; 8]));
        }
        let a: Vec<_> = build_aggregate(&store, NodeId(0), 0, 120)
            .iter()
            .map(|i| i.origin)
            .collect();
        let b: Vec<_> = build_aggregate(&store, NodeId(0), 17, 120)
            .iter()
            .map(|i| i.origin)
            .collect();
        assert_ne!(a, b, "rotation must vary carried items");
    }

    #[test]
    fn partitioned_network_caps_reliability() {
        // Two 2-node islands: items cannot cross the gap. Each island is a
        // 10 m link in a 15 m disk; the islands are 490 m apart.
        let hear = generators::line(2, 10.0, disk(15.0)).rssi_matrix()[0][1];
        let rssi: Vec<Vec<Dbm>> = (0..4)
            .map(|a| {
                (0..4)
                    .map(|b| match (a == b, a / 2 == b / 2) {
                        (true, _) | (_, false) => Dbm(f64::NEG_INFINITY),
                        (false, true) => hear,
                    })
                    .collect()
            })
            .collect();
        let mut stores = vec![ItemStore::new(); 4];
        publish_all(&mut stores, 1);
        let mut rng = DetRng::new(2);
        let report = run_round(
            &rssi,
            &mut stores,
            NodeId(0),
            &StConfig::default(),
            0,
            &mut rng,
        );
        assert!(!report.all_to_all);
        // Each node can know at most its island: 2 of 4 published.
        assert!(report.coverage.iter().all(|&c| c == 2));
        assert!((report.reliability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn radio_on_time_fits_round_period() {
        let topo = han_net::flocklab::flocklab26_deterministic();
        let rssi = topo.rssi_matrix();
        let mut stores = vec![ItemStore::new(); 26];
        publish_all(&mut stores, 1);
        let mut rng = DetRng::new(4);
        let cfg = StConfig::default();
        let report = run_round(&rssi, &mut stores, NodeId(0), &cfg, 0, &mut rng);
        for (i, &on) in report.radio_on.iter().enumerate() {
            assert!(
                on < cfg.round_period,
                "node {i} radio-on {on} exceeds the round period"
            );
        }
    }

    #[test]
    fn newer_items_replace_older_across_rounds() {
        let topo = generators::grid(2, 2, 10.0, disk(20.0));
        let rssi = topo.rssi_matrix();
        let mut stores = vec![ItemStore::new(); 4];
        publish_all(&mut stores, 1);
        let mut rng = DetRng::new(5);
        run_round(
            &rssi,
            &mut stores,
            NodeId(0),
            &StConfig::default(),
            0,
            &mut rng,
        );
        // Node 2 publishes seq 2; everyone should adopt it next round.
        stores[2].merge(&Item::new(NodeId(2), 2, vec![9u8; 8]));
        run_round(
            &rssi,
            &mut stores,
            NodeId(0),
            &StConfig::default(),
            1,
            &mut rng,
        );
        for (i, store) in stores.iter().enumerate() {
            assert_eq!(store.seq_of(NodeId(2)), Some(2), "node {i} kept stale item");
        }
    }
}
