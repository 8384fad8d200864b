//! Glossy-style synchronous flooding.
//!
//! Glossy (Ferrari et al., IPSN 2011) floods one frame through a multi-hop
//! network in a handful of slots: the initiator transmits, every receiver
//! retransmits the *identical* frame in the next slot, and concurrent
//! retransmissions survive thanks to constructive interference and the
//! capture effect. Each node transmits at most `n_tx` times.
//!
//! [`flood`] executes one flood slot by slot over a [`LinkTable`] and
//! leaves in a caller-owned [`Flood`] who holds the frame afterwards and
//! what each node spent on the radio (transmissions and listening slots).
//! It is the primitive under both the sync beacon and every MiniCast data
//! phase, and it allocates nothing once the [`Flood`] buffers have grown.
//!
//! # The slot kernel
//!
//! A flood puts one frame on air, so every signal in a slot carries the
//! same content. If the offsets of all of a slot's transmitters lie
//! within the constructive-interference window, so does every listener's
//! audible spread, and the listener's outcome is one PRR coin for its
//! strongest audible transmitter plus the CI gain against the noise
//! floor. That transmitter is the first transmitting entry of the
//! listener's strongest-first list in the [`LinkTable`], and its PRR
//! comes from the table's memo. Any other slot (a desynchronised
//! transmitter) fills a reused buffer and goes through [`resolve_slot`],
//! so the capture rule exists once.
//!
//! # RNG order
//!
//! Per slot, one transmit offset per transmitter, in node order, before
//! any listener is resolved; then one PRR coin per listener that reaches
//! the PRR step, in listener order. Silence, below-sensitivity and
//! collision outcomes draw nothing. The naive flood in this module's
//! tests builds every signal list and resolves every listener through
//! [`resolve_slot`]; a proptest holds the kernel to its outcomes and RNG
//! state.

use crate::config::StConfig;
use han_net::NodeId;
use han_radio::capture::{resolve_slot, IncomingSignal, SlotOutcome};
use han_radio::phy;
use han_radio::prr;
use han_radio::units::Dbm;
use han_sim::rng::DetRng;
use han_sim::time::SimDuration;

/// The radio picture of a deployment, built once from
/// [`han_net::Topology::rssi_matrix`] and reused by every flood.
///
/// It holds the RSSI matrix (flat), each listener's audible transmitters
/// strongest first, and a memo of the PRR of constructive-interference
/// slots keyed by (transmitter, listener, frame size). The memo fills on
/// first use, so building the table costs only the sorted lists.
#[derive(Debug, Clone)]
pub struct LinkTable {
    n: usize,
    /// `rssi[from * n + to]`.
    rssi: Vec<Dbm>,
    /// Listener `l` hears `audible[starts[l]..starts[l + 1]]`: every other
    /// node at or above receiver sensitivity, strongest first, ties to the
    /// lower index (the order [`resolve_slot`] sorts into).
    starts: Vec<usize>,
    audible: Vec<usize>,
    /// One PRR table per (frame size, CI gain) flooded so far.
    memos: Vec<PrrMemo>,
}

/// The CI-slot PRR of every `audible` entry at one frame size.
#[derive(Debug, Clone)]
struct PrrMemo {
    frame_bytes: usize,
    ci_gain_bits: u64,
    /// Indexed like [`LinkTable::audible`]; NaN until first use.
    prr: Vec<f64>,
}

impl LinkTable {
    /// Builds the table from a `matrix[from][to]` link budget.
    ///
    /// # Panics
    ///
    /// Panics if `rssi` is not square.
    pub fn new(rssi: &[Vec<Dbm>]) -> Self {
        let n = rssi.len();
        assert!(
            rssi.iter().all(|row| row.len() == n),
            "rssi matrix not square"
        );
        let flat: Vec<Dbm> = rssi.iter().flatten().copied().collect();
        let mut starts = Vec::with_capacity(n + 1);
        let mut audible = Vec::new();
        starts.push(0);
        for listener in 0..n {
            let first = audible.len();
            let level = |tx: usize| flat[tx * n + listener];
            audible.extend((0..n).filter(|&tx| tx != listener && level(tx) >= phy::SENSITIVITY));
            // Audible levels are never NaN, so this order is total.
            audible[first..].sort_unstable_by(|&a, &b| {
                level(b)
                    .partial_cmp(&level(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            starts.push(audible.len());
        }
        LinkTable {
            n,
            rssi: flat,
            starts,
            audible,
            memos: Vec::new(),
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Index of the memo for `frame_bytes` at `ci_gain_db`, added on
    /// first use.
    fn memo_index(&mut self, frame_bytes: usize, ci_gain_db: f64) -> usize {
        let ci_gain_bits = ci_gain_db.to_bits();
        if let Some(i) = self
            .memos
            .iter()
            .position(|m| m.frame_bytes == frame_bytes && m.ci_gain_bits == ci_gain_bits)
        {
            return i;
        }
        self.memos.push(PrrMemo {
            frame_bytes,
            ci_gain_bits,
            prr: vec![f64::NAN; self.audible.len()],
        });
        self.memos.len() - 1
    }
}

/// One flood's result and working memory, reused flood after flood.
#[derive(Debug, Default, Clone)]
pub(crate) struct Flood {
    /// Whether each node holds the frame after the flood (initiator: true).
    pub(crate) received: Vec<bool>,
    /// Number of transmissions each node made.
    pub(crate) tx_count: Vec<u32>,
    /// Number of slots each node spent listening.
    pub(crate) listen_slots: Vec<u32>,
    /// Slot in which each node will next transmit ([`NEVER`]: none).
    tx_at: Vec<usize>,
    /// This slot's transmitters in node order, their offsets, and a
    /// per-node flag of the same set.
    transmitters: Vec<usize>,
    offsets: Vec<SimDuration>,
    transmitting: Vec<bool>,
    /// One listener's incident signals in a slot outside the CI window.
    signals: Vec<IncomingSignal>,
}

/// `Flood::tx_at` of a node that is not armed.
const NEVER: usize = usize::MAX;

impl Flood {
    fn reset(&mut self, n: usize) {
        for v in [&mut self.received, &mut self.transmitting] {
            v.clear();
            v.resize(n, false);
        }
        for v in [&mut self.tx_count, &mut self.listen_slots] {
            v.clear();
            v.resize(n, 0);
        }
        self.tx_at.clear();
        self.tx_at.resize(n, NEVER);
    }
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

/// Executes one synchronous flood of an identical frame from `initiator`
/// into `out` (see the [module docs](self)).
///
/// `content_id` identifies the frame content for the capture model;
/// `frame_bytes` is the on-air frame size.
///
/// # Panics
///
/// Panics if `initiator` is out of range.
pub(crate) fn flood(
    links: &mut LinkTable,
    initiator: NodeId,
    content_id: u64,
    frame_bytes: usize,
    cfg: &StConfig,
    rng: &mut DetRng,
    out: &mut Flood,
) {
    let n = links.len();
    assert!(initiator.index() < n, "initiator out of range");
    let n_tx = u32::from(cfg.n_tx);
    let memo = links.memo_index(frame_bytes, cfg.capture.ci_gain_db);
    let LinkTable {
        rssi,
        starts,
        audible,
        memos,
        ..
    } = links;
    let prr_memo = &mut memos[memo].prr;
    out.reset(n);
    out.received[initiator.index()] = true;
    out.tx_at[initiator.index()] = 0;

    for slot in 0..cfg.flood_slots {
        out.transmitters.clear();
        out.transmitters
            .extend((0..n).filter(|&i| out.tx_at[i] == slot && out.tx_count[i] < n_tx));

        // Offsets are drawn once per transmitter per slot, shared by all
        // receivers (the transmitter is early or late for everyone).
        out.offsets.clear();
        for &tx in &out.transmitters {
            out.offsets.push(draw_offset(cfg, rng));
            out.transmitting[tx] = true;
        }
        let spread = match (out.offsets.iter().min(), out.offsets.iter().max()) {
            (Some(&lo), Some(&hi)) => hi - lo,
            _ => SimDuration::ZERO,
        };
        let constructive = spread <= cfg.capture.ci_window;

        for listener in 0..n {
            if out.transmitting[listener] {
                continue;
            }
            out.listen_slots[listener] += 1;
            if out.transmitters.is_empty() {
                continue;
            }
            let received = if constructive {
                // The strongest audible transmitter decides; nobody
                // audible transmitting is below sensitivity: no draw.
                let range = starts[listener]..starts[listener + 1];
                match audible[range.clone()]
                    .iter()
                    .position(|&tx| out.transmitting[tx])
                {
                    Some(k) => {
                        let entry = range.start + k;
                        let p = &mut prr_memo[entry];
                        if p.is_nan() {
                            let level = rssi[audible[entry] * n + listener];
                            *p = prr::packet_reception_rate(
                                level + cfg.capture.ci_gain_db,
                                phy::NOISE_FLOOR,
                                frame_bytes,
                            );
                        }
                        rng.gen_bool(*p)
                    }
                    None => false,
                }
            } else {
                out.signals.clear();
                out.signals
                    .extend(
                        out.transmitters
                            .iter()
                            .zip(&out.offsets)
                            .map(|(&tx, &offset)| IncomingSignal {
                                tx_index: tx,
                                rssi: rssi[tx * n + listener],
                                offset,
                                content_id,
                            }),
                    );
                matches!(
                    resolve_slot(&mut out.signals, &cfg.capture, frame_bytes, rng),
                    SlotOutcome::Received { .. }
                )
            };
            if received {
                // Per Glossy, a relay re-arms on every reception. A
                // listener is no transmitter this slot, so its budget is
                // already final here.
                out.received[listener] = true;
                if out.tx_count[listener] < n_tx {
                    out.tx_at[listener] = slot + 1;
                }
            }
        }

        // Post-slot bookkeeping: transmitters consumed a transmission and
        // the initiator re-arms two slots later.
        for &tx in &out.transmitters {
            out.transmitting[tx] = false;
            out.tx_count[tx] += 1;
            out.tx_at[tx] = if tx == initiator.index() && out.tx_count[tx] < n_tx {
                slot + 2
            } else {
                NEVER
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_net::{generators, Topology};
    use han_radio::channel::ChannelModel;
    use proptest::prelude::*;

    fn disk(range: f64) -> ChannelModel {
        ChannelModel::UnitDisk { range_m: range }
    }

    fn cfg() -> StConfig {
        StConfig::default()
    }

    /// Result of one naive flood.
    #[derive(Debug, Clone, PartialEq)]
    struct FloodOutcome {
        /// Whether each node holds the frame after the flood (initiator: true).
        received: Vec<bool>,
        /// Slot index of first reception per node (`None` for the initiator
        /// and for nodes that never received).
        first_rx_slot: Vec<Option<usize>>,
        /// Number of transmissions each node made.
        tx_count: Vec<u32>,
        /// Number of slots each node spent listening.
        listen_slots: Vec<u32>,
    }

    /// The naive flood, the kernel's oracle: every listener of every slot
    /// gets a fresh signal list and goes through [`resolve_slot`].
    fn naive_flood(
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
                let mut signals: Vec<IncomingSignal> = transmitters
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
                    resolve_slot(&mut signals, &cfg.capture, frame_bytes, rng)
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
        }
    }

    /// One kernel flood over a fresh link table.
    fn flood_once(
        rssi: &[Vec<Dbm>],
        initiator: NodeId,
        content_id: u64,
        frame_bytes: usize,
        cfg: &StConfig,
        rng: &mut DetRng,
    ) -> Flood {
        let mut out = Flood::default();
        let mut links = LinkTable::new(rssi);
        flood(
            &mut links,
            initiator,
            content_id,
            frame_bytes,
            cfg,
            rng,
            &mut out,
        );
        out
    }

    /// Fraction of nodes (including the initiator) holding the frame.
    fn coverage(received: &[bool]) -> f64 {
        received.iter().filter(|&&r| r).count() as f64 / received.len() as f64
    }

    /// Whether every node received the frame.
    fn is_complete(received: &[bool]) -> bool {
        received.iter().all(|&r| r)
    }

    #[test]
    fn flood_covers_connected_line() {
        let topo = generators::line(5, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let out = flood_once(&rssi, NodeId(0), 42, 60, &cfg(), &mut DetRng::new(1));
        assert!(
            is_complete(&out.received),
            "flood failed: {:?}",
            out.received
        );
        // Hop latency: node k first receives in slot >= k-1. A flood cut
        // after `s` slots draws what the full one draws in its first `s`,
        // so node 1 holds the frame after one slot and node 4 not after
        // three.
        let cut = |flood_slots| StConfig {
            flood_slots,
            ..cfg()
        };
        let one = flood_once(&rssi, NodeId(0), 42, 60, &cut(1), &mut DetRng::new(1));
        assert!(one.received[1]);
        let three = flood_once(&rssi, NodeId(0), 42, 60, &cut(3), &mut DetRng::new(1));
        assert!(!three.received[4]);
        // The same latencies, read off the naive flood's reception slots.
        let naive = naive_flood(&rssi, NodeId(0), 42, 60, &cfg(), &mut DetRng::new(1));
        assert!(
            is_complete(&naive.received),
            "flood failed: {:?}",
            naive.received
        );
        assert_eq!(naive.first_rx_slot[1], Some(0));
        assert!(naive.first_rx_slot[4].unwrap() >= 3);
    }

    #[test]
    fn flood_respects_partition() {
        let topo = generators::line(4, 30.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(1);
        let out = flood_once(&rssi, NodeId(0), 42, 60, &cfg(), &mut rng);
        assert!(out.received[0]);
        assert!(!out.received[1] && !out.received[2] && !out.received[3]);
        assert!((coverage(&out.received) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tx_budget_respected() {
        let topo = generators::grid(4, 4, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(2);
        let c = cfg();
        let out = flood_once(&rssi, NodeId(5), 7, 60, &c, &mut rng);
        for (i, &t) in out.tx_count.iter().enumerate() {
            assert!(t <= u32::from(c.n_tx), "node {i} transmitted {t} times");
        }
        assert!(is_complete(&out.received));
    }

    #[test]
    fn initiator_never_counts_as_receiver_slot() {
        let topo = generators::line(3, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        // After one slot the initiator holds the frame without having
        // listened: it transmitted, and only its neighbours received.
        let one = StConfig {
            flood_slots: 1,
            ..cfg()
        };
        let out = flood_once(&rssi, NodeId(1), 9, 60, &one, &mut DetRng::new(3));
        assert!(out.received[1]);
        assert_eq!((out.tx_count[1], out.listen_slots[1]), (1, 0));
        assert_eq!((out.tx_count[0], out.listen_slots[0]), (0, 1));
        let out = flood_once(&rssi, NodeId(1), 9, 60, &cfg(), &mut DetRng::new(3));
        assert!(out.received[1]);
        // The naive flood never records a reception slot for it.
        let naive = naive_flood(&rssi, NodeId(1), 9, 60, &cfg(), &mut DetRng::new(3));
        assert_eq!(naive.first_rx_slot[1], None);
        assert!(naive.received[1]);
    }

    #[test]
    fn flood_reliable_across_seeds_on_flocklab() {
        let topo = han_net::flocklab::flocklab26_deterministic();
        let rssi = topo.rssi_matrix();
        let c = cfg();
        let mut links = LinkTable::new(&rssi);
        let mut out = Flood::default();
        let mut complete = 0;
        for seed in 0..50 {
            let mut rng = DetRng::new(seed);
            flood(&mut links, NodeId(0), seed, 60, &c, &mut rng, &mut out);
            if is_complete(&out.received) {
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
            covered += coverage(&flood_once(&rssi, NodeId(0), 1, 60, &noisy, &mut rng).received);
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
        let out = flood_once(&rssi, NodeId(0), 1, 60, &c, &mut rng);
        for i in 0..3 {
            assert_eq!(
                u32::try_from(c.flood_slots).unwrap(),
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
        flood_once(&rssi, NodeId(5), 1, 60, &cfg(), &mut rng);
    }

    #[test]
    fn strongest_first_lists_break_ties_to_the_lower_index() {
        let d = |v: f64| Dbm(v);
        let inf = Dbm(f64::NEG_INFINITY);
        // Listener 0 hears 2 and 3 equally and 1 below sensitivity.
        let rssi = vec![
            vec![inf, d(-70.0), d(-70.0), d(-70.0)],
            vec![d(-105.0), inf, d(-70.0), d(-70.0)],
            vec![d(-80.0), d(-70.0), inf, d(-70.0)],
            vec![d(-80.0), d(-70.0), d(-60.0), inf],
        ];
        let links = LinkTable::new(&rssi);
        let heard = |l: usize| links.audible[links.starts[l]..links.starts[l + 1]].to_vec();
        assert_eq!(heard(0), vec![2, 3]);
        assert_eq!(heard(2), vec![3, 0, 1]);
        assert_eq!(heard(3), vec![0, 1, 2]);
    }

    /// A line, a grid or the testbed, on a shadowed channel so that some
    /// links sit in the transitional region.
    fn oracle_topology(kind: u8, size: usize, spacing: f64, seed: u64) -> Topology {
        let channel = ChannelModel::indoor_office(seed);
        match kind {
            0 => generators::line(size, spacing, channel),
            1 => generators::grid(size.div_ceil(3), 3, spacing, channel),
            _ => han_net::flocklab::flocklab26(seed),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernel_floods_like_the_naive_flood(
            kind in 0u8..3,
            size in 2usize..14,
            spacing in 5.0f64..30.0,
            channel_seed in any::<u64>(),
            desync in 0usize..5,
            floods in prop::collection::vec((any::<u32>(), 20usize..128, any::<u64>()), 1..5),
            seed in any::<u64>(),
        ) {
            let topo = oracle_topology(kind, size, spacing, channel_seed);
            let rssi = topo.rssi_matrix();
            let n = topo.len();
            // The high probabilities drive the capture path.
            let c = StConfig {
                desync_probability: [0.0, 0.001, 0.05, 0.5, 1.0][desync],
                ..StConfig::default()
            };
            // One table and one scratch across the floods: the memo and
            // the buffers carry over.
            let mut links = LinkTable::new(&rssi);
            let mut out = Flood::default();
            let mut kernel_rng = DetRng::new(seed);
            let mut naive_rng = DetRng::new(seed);
            for &(initiator, frame_bytes, content) in &floods {
                let initiator = NodeId(initiator % n as u32);
                flood(&mut links, initiator, content, frame_bytes, &c, &mut kernel_rng, &mut out);
                let want = naive_flood(&rssi, initiator, content, frame_bytes, &c, &mut naive_rng);
                prop_assert_eq!(&out.received, &want.received);
                prop_assert_eq!(&out.tx_count, &want.tx_count);
                prop_assert_eq!(&out.listen_slots, &want.listen_slots);
                prop_assert_eq!(kernel_rng.state(), naive_rng.state());
            }
        }

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
            let out = flood_once(&rssi, NodeId(0), 1, 60, &StConfig::default(), &mut rng);
            let connected = spacing <= 15.0;
            if connected {
                // With the default redundancy a clean line always floods fully
                // as long as it fits the slot budget (hops <= flood_slots).
                if n <= StConfig::default().flood_slots {
                    prop_assert!(is_complete(&out.received), "coverage {:?}", out.received);
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
            let out = flood_once(&rssi, NodeId(0), 1, 60, &cfg, &mut rng);
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
