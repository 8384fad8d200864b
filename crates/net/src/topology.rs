//! Network topology: node placement plus a propagation model.
//!
//! A [`Topology`] combines node positions with a [`ChannelModel`] and a
//! transmit power, and derives what the protocol layer needs: the RSSI
//! between any two nodes.

use han_radio::channel::{undirected_link_id, ChannelModel};
use han_radio::units::Dbm;
use std::fmt;

/// Identifier of a network node (a Device Interface in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A 2-D node position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Position {
    /// X coordinate in metres.
    x: f64,
    /// Y coordinate in metres.
    y: f64,
}

impl Position {
    /// Creates a position.
    pub(crate) const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub(crate) fn distance_to(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A set of placed nodes sharing one propagation environment.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    channel: ChannelModel,
    tx_power: Dbm,
}

impl Topology {
    /// Creates a topology from node positions.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty.
    pub(crate) fn new(positions: Vec<Position>, channel: ChannelModel, tx_power: Dbm) -> Self {
        assert!(!positions.is_empty(), "topology must contain nodes");
        Topology {
            positions,
            channel,
            tx_power,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always false: a topology holds at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates all node ids in ascending order.
    pub(crate) fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Returns a node's position.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub(crate) fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Distance in metres between two nodes.
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance_to(self.position(b))
    }

    /// Received signal strength at `to` for a transmission from `from`.
    ///
    /// Reciprocal: shadowing is frozen on the undirected link.
    pub(crate) fn rssi(&self, from: NodeId, to: NodeId) -> Dbm {
        self.channel.rssi(
            self.tx_power,
            self.distance(from, to),
            undirected_link_id(from.0, to.0),
        )
    }

    /// Precomputes the full RSSI matrix (`matrix[from][to]`).
    ///
    /// Protocol simulations resolve thousands of slots per second of
    /// simulated time; caching the link budget avoids recomputing shadowing
    /// on every slot. The diagonal holds negative infinity (a node does not
    /// hear itself).
    pub fn rssi_matrix(&self) -> Vec<Vec<Dbm>> {
        let n = self.len();
        let mut m = vec![vec![Dbm(f64::NEG_INFINITY); n]; n];
        for a in self.node_ids() {
            for b in self.node_ids() {
                if a != b {
                    m[a.index()][b.index()] = self.rssi(a, b);
                }
            }
        }
        m
    }
}

/// Link-quality queries the topology tests use to check the layouts that
/// production builds.
#[cfg(test)]
impl Topology {
    /// Expected packet reception rate on the link for a frame of
    /// `frame_bytes` bytes (no interference).
    pub(crate) fn link_prr(&self, from: NodeId, to: NodeId, frame_bytes: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let noise = han_radio::phy::NOISE_FLOOR;
        han_radio::prr::packet_reception_rate(self.rssi(from, to), noise, frame_bytes)
    }

    /// Nodes whose link PRR from `node` meets `min_prr` for a 64-byte
    /// frame.
    pub(crate) fn neighbors(&self, node: NodeId, min_prr: f64) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&other| other != node && self.link_prr(node, other, 64) >= min_prr)
            .collect()
    }

    /// Minimum hop counts from `source` over links with PRR ≥ `min_prr`.
    ///
    /// Unreachable nodes map to `None`.
    pub(crate) fn hop_counts(&self, source: NodeId, min_prr: f64) -> Vec<Option<u32>> {
        let n = self.len();
        let mut hops: Vec<Option<u32>> = vec![None; n];
        hops[source.index()] = Some(0);
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let next_hop = hops[u.index()].expect("visited node lacks hop count") + 1;
            for v in self.neighbors(u, min_prr) {
                if hops[v.index()].is_none() {
                    hops[v.index()] = Some(next_hop);
                    queue.push_back(v);
                }
            }
        }
        hops
    }

    /// Whether every node can reach every other over links with
    /// PRR ≥ `min_prr`.
    pub(crate) fn is_connected(&self, min_prr: f64) -> bool {
        self.hop_counts(NodeId(0), min_prr)
            .iter()
            .all(|h| h.is_some())
    }

    /// Network diameter in hops over links with PRR ≥ `min_prr`, or `None`
    /// if the graph is disconnected.
    pub(crate) fn diameter(&self, min_prr: f64) -> Option<u32> {
        let mut max = 0;
        for source in self.node_ids() {
            for h in self.hop_counts(source, min_prr) {
                max = max.max(h?);
            }
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Topology {
        // 3 nodes, 10 m apart, unit disk range 15 m: a line graph.
        Topology::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(10.0, 0.0),
                Position::new(20.0, 0.0),
            ],
            ChannelModel::UnitDisk { range_m: 15.0 },
            Dbm(0.0),
        )
    }

    #[test]
    fn distances() {
        let t = line3();
        assert_eq!(t.distance(NodeId(0), NodeId(2)), 20.0);
        assert_eq!(t.distance(NodeId(1), NodeId(1)), 0.0);
    }

    #[test]
    fn unit_disk_neighbors() {
        let t = line3();
        assert_eq!(t.neighbors(NodeId(0), 0.5), vec![NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(1), 0.5), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn hop_counts_on_line() {
        let t = line3();
        let hops = t.hop_counts(NodeId(0), 0.5);
        assert_eq!(hops, vec![Some(0), Some(1), Some(2)]);
        assert!(t.is_connected(0.5));
        assert_eq!(t.diameter(0.5), Some(2));
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::new(
            vec![Position::new(0.0, 0.0), Position::new(100.0, 0.0)],
            ChannelModel::UnitDisk { range_m: 15.0 },
            Dbm(0.0),
        );
        assert!(!t.is_connected(0.5));
        assert_eq!(t.diameter(0.5), None);
        assert_eq!(t.hop_counts(NodeId(0), 0.5)[1], None);
    }

    #[test]
    fn self_link_prr_zero() {
        let t = line3();
        assert_eq!(t.link_prr(NodeId(1), NodeId(1), 64), 0.0);
    }

    #[test]
    fn rssi_reciprocal_with_shadowing() {
        let t = Topology::new(
            vec![Position::new(0.0, 0.0), Position::new(25.0, 0.0)],
            ChannelModel::indoor_office(99),
            Dbm(0.0),
        );
        assert_eq!(t.rssi(NodeId(0), NodeId(1)), t.rssi(NodeId(1), NodeId(0)));
    }

    #[test]
    fn close_indoor_link_is_reliable() {
        let t = Topology::new(
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
            ChannelModel::indoor_office_no_shadowing(),
            Dbm(0.0),
        );
        assert!(t.link_prr(NodeId(0), NodeId(1), 64) > 0.999);
    }

    #[test]
    #[should_panic(expected = "topology must contain nodes")]
    fn empty_topology_panics() {
        Topology::new(vec![], ChannelModel::UnitDisk { range_m: 1.0 }, Dbm(0.0));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }
}
