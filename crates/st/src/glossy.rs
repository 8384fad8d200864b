//! Glossy-style synchronous flooding.
//!
//! Glossy (Ferrari et al., IPSN 2011) floods one frame through a multi-hop
//! network in a handful of slots: the initiator transmits, every receiver
//! retransmits the *identical* frame in the next slot, and concurrent
//! retransmissions survive thanks to constructive interference and the
//! capture effect. Each node transmits at most `n_tx` times.
//!
//! [`flood`] executes one flood slot-by-slot against a precomputed RSSI
//! matrix and returns who received the frame, when, and at what radio cost.
//! It is the primitive under both the sync beacon and every MiniCast data
//! phase.

use crate::config::StConfig;
use han_net::NodeId;
use han_radio::capture::{resolve_slot, IncomingSignal, SlotOutcome};
use han_radio::units::Dbm;
use han_sim::rng::DetRng;
use han_sim::time::SimDuration;

/// Result of one flood.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodOutcome {
    /// Whether each node holds the frame after the flood (initiator: true).
    pub received: Vec<bool>,
    /// Slot index of first reception per node (`None` for the initiator and
    /// for nodes that never received).
    pub first_rx_slot: Vec<Option<usize>>,
    /// Number of transmissions each node made.
    pub tx_count: Vec<u32>,
    /// Number of slots each node spent listening.
    pub listen_slots: Vec<u32>,
    /// Slots actually elapsed (the configured flood length).
    pub slots_used: usize,
}

/// Draws a transmit-timing offset for one transmitter in one slot.
fn draw_offset(cfg: &StConfig, rng: &mut DetRng) -> SimDuration {
    if rng.gen_bool(cfg.desync_probability) {
        // A late timer interrupt: several to tens of microseconds off,
        // outside the constructive-interference window.
        SimDuration::from_micros(rng.gen_range_u64(45) + 5)
    } else {
        let jitter_ns = rng.gen_normal(0.0, cfg.tx_jitter_ns as f64).abs();
        SimDuration::from_micros((jitter_ns / 1000.0).round() as u64)
    }
}

/// Executes one synchronous flood of an identical frame from `initiator`.
///
/// `rssi` is the `matrix[from][to]` link-budget table from
/// [`han_net::Topology::rssi_matrix`]; `content_id` identifies the frame
/// content for the capture model; `frame_bytes` is the on-air frame size.
///
/// # Panics
///
/// Panics if `initiator` is out of range or `rssi` is not square.
pub fn flood(
    rssi: &[Vec<Dbm>],
    initiator: NodeId,
    content_id: u64,
    frame_bytes: usize,
    cfg: &StConfig,
    rng: &mut DetRng,
) -> FloodOutcome {
    let n = rssi.len();
    assert!(initiator.index() < n, "initiator out of range");
    assert!(
        rssi.iter().all(|row| row.len() == n),
        "rssi matrix not square"
    );

    let mut received = vec![false; n];
    let mut first_rx_slot = vec![None; n];
    let mut tx_count = vec![0u32; n];
    let mut listen_slots = vec![0u32; n];
    // Slot in which each node will next transmit, if any.
    let mut tx_at: Vec<Option<usize>> = vec![None; n];

    received[initiator.index()] = true;
    tx_at[initiator.index()] = Some(0);

    for slot in 0..cfg.flood_slots {
        let transmitters: Vec<usize> = (0..n)
            .filter(|&i| tx_at[i] == Some(slot) && tx_count[i] < u32::from(cfg.n_tx))
            .collect();

        // Offsets are drawn once per transmitter per slot, shared by all
        // receivers (the transmitter is early or late for everyone).
        let offsets: Vec<SimDuration> =
            transmitters.iter().map(|_| draw_offset(cfg, rng)).collect();

        let mut newly_received: Vec<usize> = Vec::new();
        for listener in 0..n {
            if transmitters.contains(&listener) {
                continue;
            }
            listen_slots[listener] += 1;
            if transmitters.is_empty() {
                continue;
            }
            let signals: Vec<IncomingSignal> = transmitters
                .iter()
                .zip(&offsets)
                .map(|(&tx, &offset)| IncomingSignal {
                    tx_index: tx,
                    rssi: rssi[tx][listener],
                    offset,
                    content_id,
                })
                .collect();
            if let SlotOutcome::Received { .. } =
                resolve_slot(&signals, &cfg.capture, frame_bytes, rng)
            {
                if !received[listener] {
                    received[listener] = true;
                    first_rx_slot[listener] = Some(slot);
                }
                newly_received.push(listener);
            }
        }

        // Post-slot bookkeeping: transmitters consumed a transmission and,
        // per Glossy, the initiator re-arms two slots later while relays
        // re-arm on every reception.
        for &tx in &transmitters {
            tx_count[tx] += 1;
            tx_at[tx] = if tx == initiator.index() && tx_count[tx] < u32::from(cfg.n_tx) {
                Some(slot + 2)
            } else {
                None
            };
        }
        for &node in &newly_received {
            if tx_count[node] < u32::from(cfg.n_tx) {
                tx_at[node] = Some(slot + 1);
            }
        }
    }

    FloodOutcome {
        received,
        first_rx_slot,
        tx_count,
        listen_slots,
        slots_used: cfg.flood_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_net::generators;
    use han_radio::channel::ChannelModel;
    use proptest::prelude::*;

    fn disk(range: f64) -> ChannelModel {
        ChannelModel::UnitDisk { range_m: range }
    }

    fn cfg() -> StConfig {
        StConfig::default()
    }

    /// Fraction of nodes (including the initiator) holding the frame.
    fn coverage(out: &FloodOutcome) -> f64 {
        out.received.iter().filter(|&&r| r).count() as f64 / out.received.len() as f64
    }

    /// Whether every node received the frame.
    fn is_complete(out: &FloodOutcome) -> bool {
        out.received.iter().all(|&r| r)
    }

    #[test]
    fn flood_covers_connected_line() {
        let topo = generators::line(5, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(1);
        let out = flood(&rssi, NodeId(0), 42, 60, &cfg(), &mut rng);
        assert!(is_complete(&out), "flood failed: {:?}", out.received);
        // Hop latency: node k first receives in slot >= k-1.
        assert_eq!(out.first_rx_slot[1], Some(0));
        assert!(out.first_rx_slot[4].unwrap() >= 3);
    }

    #[test]
    fn flood_respects_partition() {
        let topo = generators::line(4, 30.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(1);
        let out = flood(&rssi, NodeId(0), 42, 60, &cfg(), &mut rng);
        assert!(out.received[0]);
        assert!(!out.received[1] && !out.received[2] && !out.received[3]);
        assert!((coverage(&out) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tx_budget_respected() {
        let topo = generators::grid(4, 4, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(2);
        let c = cfg();
        let out = flood(&rssi, NodeId(5), 7, 60, &c, &mut rng);
        for (i, &t) in out.tx_count.iter().enumerate() {
            assert!(t <= u32::from(c.n_tx), "node {i} transmitted {t} times");
        }
        assert!(is_complete(&out));
    }

    #[test]
    fn initiator_never_counts_as_receiver_slot() {
        let topo = generators::line(3, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(3);
        let out = flood(&rssi, NodeId(1), 9, 60, &cfg(), &mut rng);
        assert_eq!(out.first_rx_slot[1], None);
        assert!(out.received[1]);
    }

    #[test]
    fn flood_reliable_across_seeds_on_flocklab() {
        let topo = han_net::flocklab::flocklab26_deterministic();
        let rssi = topo.rssi_matrix();
        let c = cfg();
        let mut complete = 0;
        for seed in 0..50 {
            let mut rng = DetRng::new(seed);
            let out = flood(&rssi, NodeId(0), seed, 60, &c, &mut rng);
            if is_complete(&out) {
                complete += 1;
            }
        }
        assert!(
            complete >= 45,
            "flood should almost always cover the testbed, got {complete}/50"
        );
    }

    #[test]
    fn heavy_desync_degrades_but_capture_saves_some() {
        let topo = generators::grid(3, 3, 10.0, disk(25.0));
        let rssi = topo.rssi_matrix();
        let noisy = StConfig {
            desync_probability: 1.0,
            ..cfg()
        };
        let mut covered = 0.0;
        for seed in 0..20 {
            let mut rng = DetRng::new(seed);
            covered += coverage(&flood(&rssi, NodeId(0), 1, 60, &noisy, &mut rng));
        }
        let mean = covered / 20.0;
        // Desynchronized relays collide constantly, but single-transmitter
        // slots and capture still move the frame: partial coverage.
        assert!(mean > 0.2 && mean < 1.0, "mean coverage {mean}");
    }

    #[test]
    fn listen_accounting_sane() {
        let topo = generators::line(3, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(5);
        let c = cfg();
        let out = flood(&rssi, NodeId(0), 1, 60, &c, &mut rng);
        for i in 0..3 {
            assert_eq!(
                u32::try_from(out.slots_used).unwrap(),
                out.listen_slots[i] + out.tx_count[i],
                "node {i} slots must split between listen and tx"
            );
        }
    }

    #[test]
    #[should_panic(expected = "initiator out of range")]
    fn bad_initiator_panics() {
        let topo = generators::line(2, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(1);
        flood(&rssi, NodeId(5), 1, 60, &cfg(), &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn flood_reaches_exactly_the_connected_component(
            n in 2usize..12,
            spacing in 5.0f64..25.0,
            seed in any::<u64>()
        ) {
            // A line with unit-disk range 15: connected prefix iff spacing <= 15.
            let topo = generators::line(n, spacing, ChannelModel::UnitDisk { range_m: 15.0 });
            let rssi = topo.rssi_matrix();
            let mut rng = DetRng::new(seed);
            let out = flood(&rssi, NodeId(0), 1, 60, &StConfig::default(), &mut rng);
            let connected = spacing <= 15.0;
            if connected {
                // With the default redundancy a clean line always floods fully
                // as long as it fits the slot budget (hops <= flood_slots).
                if n <= StConfig::default().flood_slots {
                    prop_assert!(is_complete(&out), "coverage {:?}", out.received);
                }
            } else {
                prop_assert!(out.received[0]);
                for i in 1..n {
                    prop_assert!(!out.received[i], "frame crossed a {spacing} m gap");
                }
            }
        }

        #[test]
        fn flood_tx_budget_always_respected(
            rows in 2usize..5,
            cols in 2usize..5,
            seed in any::<u64>()
        ) {
            let topo = generators::grid(rows, cols, 10.0, ChannelModel::UnitDisk { range_m: 15.0 });
            let rssi = topo.rssi_matrix();
            let cfg = StConfig::default();
            let mut rng = DetRng::new(seed);
            let out = flood(&rssi, NodeId(0), 1, 60, &cfg, &mut rng);
            for (i, &tx) in out.tx_count.iter().enumerate() {
                prop_assert!(tx <= u32::from(cfg.n_tx), "node {i} over budget");
                prop_assert_eq!(
                    out.listen_slots[i] + out.tx_count[i],
                    cfg.flood_slots as u32
                );
            }
        }
    }
}
