//! A FlockLab-like 26-node testbed layout.
//!
//! The paper evaluates on the public FlockLab 2 testbed (Trüb et al.,
//! CPS-IoTBench 2020): ~26 observer nodes spread across one floor of an
//! office building at ETH Zürich. The exact survey coordinates are not
//! published with the paper, so we reproduce the *relevant* properties:
//! 26 nodes over a ~60 m × 30 m office floor, multi-hop at 0 dBm indoor
//! propagation (2–4 hops diameter depending on shadowing), with a mixture of
//! dense clusters (adjacent offices) and longer corridor links.
//!
//! The layout is fixed; the channel seed varies per experiment, which is how
//! FlockLab runs differ from day to day.

use crate::topology::{Position, Topology};
use han_radio::channel::ChannelModel;
use han_radio::units::Dbm;

/// Number of nodes in the layout, matching the paper's experiment.
pub(crate) const FLOCKLAB_NODE_COUNT: usize = 26;

/// Node coordinates in metres on a ~60 m × 30 m office floor.
///
/// Clusters of offices along two corridors (y ≈ 5 and y ≈ 25) joined by a
/// stairwell area near x ≈ 30.
const COORDS: [(f64, f64); FLOCKLAB_NODE_COUNT] = [
    // south corridor, west wing
    (2.0, 4.0),
    (8.0, 2.5),
    (14.0, 5.0),
    (20.0, 3.0),
    (26.0, 5.5),
    // stairwell / lobby
    (31.0, 10.0),
    (29.0, 16.0),
    (33.0, 21.0),
    // north corridor, west wing
    (3.0, 26.0),
    (9.0, 28.0),
    (15.0, 25.5),
    (21.0, 27.0),
    (27.0, 25.0),
    // south corridor, east wing
    (36.0, 4.5),
    (42.0, 2.0),
    (48.0, 4.0),
    (54.0, 3.0),
    (58.0, 6.0),
    // north corridor, east wing
    (38.0, 27.5),
    (44.0, 26.0),
    (50.0, 28.0),
    (56.0, 26.5),
    // interior offices
    (12.0, 15.0),
    (22.0, 14.0),
    (44.0, 14.5),
    (52.0, 15.0),
];

/// Builds the 26-node FlockLab-like topology with log-normal shadowing
/// frozen from `channel_seed`.
///
/// # Examples
///
/// ```
/// let t = han_net::flocklab::flocklab26(1);
/// assert_eq!(t.len(), 26);
/// ```
pub fn flocklab26(channel_seed: u64) -> Topology {
    Topology::new(
        COORDS.iter().map(|&(x, y)| Position::new(x, y)).collect(),
        ChannelModel::indoor_office(channel_seed),
        Dbm(0.0),
    )
}

/// The deterministic (shadowing-free) variant, for tests that need exact
/// reproducibility of the link matrix.
pub fn flocklab26_deterministic() -> Topology {
    Topology::new(
        COORDS.iter().map(|&(x, y)| Position::new(x, y)).collect(),
        ChannelModel::indoor_office_no_shadowing(),
        Dbm(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    #[test]
    fn has_26_nodes() {
        assert_eq!(flocklab26(0).len(), FLOCKLAB_NODE_COUNT);
    }

    #[test]
    fn deterministic_variant_is_connected_and_multihop() {
        let t = flocklab26_deterministic();
        assert!(t.is_connected(0.7), "layout must be connected");
        let d = t.diameter(0.7).expect("connected");
        assert!(
            (2..=5).contains(&d),
            "expected a small multi-hop diameter, got {d}"
        );
    }

    #[test]
    fn typical_seeds_stay_connected() {
        // Shadowing redraws link budgets; the deployment must tolerate it.
        for seed in 0..10 {
            let t = flocklab26(seed);
            assert!(t.is_connected(0.5), "seed {seed} disconnected the floor");
        }
    }

    #[test]
    fn not_single_hop() {
        // The far corners must not hear each other directly: multi-hop is
        // essential for the protocol evaluation to be meaningful.
        let t = flocklab26_deterministic();
        let prr = t.link_prr(NodeId(0), NodeId(17), 64);
        assert!(prr < 0.1, "corner-to-corner link should be dead, prr={prr}");
    }

    #[test]
    fn every_node_has_a_neighbor() {
        let t = flocklab26_deterministic();
        for id in t.node_ids() {
            assert!(
                !t.neighbors(id, 0.7).is_empty(),
                "{id} has no usable neighbors"
            );
        }
    }
}
