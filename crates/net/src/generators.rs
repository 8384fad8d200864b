//! Synthetic topology generators.
//!
//! Lines (worst-case hop count) and grids (typical building coverage).
//! Nothing in production builds one: they are the test topologies of
//! `han-st`'s flood tests and `han-core`'s packet-CP tests, which cannot
//! reach test-only code in this crate.

use crate::topology::{Position, Topology};
use han_radio::channel::ChannelModel;
use han_radio::units::Dbm;

/// Default transmit power for generated topologies.
pub(crate) const DEFAULT_TX_POWER: Dbm = Dbm(0.0);

/// A line of `n` nodes spaced `spacing_m` apart.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn line(n: usize, spacing_m: f64, channel: ChannelModel) -> Topology {
    assert!(n > 0, "need at least one node");
    let positions = (0..n)
        .map(|i| Position::new(i as f64 * spacing_m, 0.0))
        .collect();
    Topology::new(positions, channel, DEFAULT_TX_POWER)
}

/// A `rows × cols` grid with `spacing_m` between adjacent nodes.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize, spacing_m: f64, channel: ChannelModel) -> Topology {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut positions = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            positions.push(Position::new(c as f64 * spacing_m, r as f64 * spacing_m));
        }
    }
    Topology::new(positions, channel, DEFAULT_TX_POWER)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(range: f64) -> ChannelModel {
        ChannelModel::UnitDisk { range_m: range }
    }

    #[test]
    fn line_shape() {
        let t = line(5, 10.0, disk(15.0));
        assert_eq!(t.len(), 5);
        assert_eq!(t.diameter(0.5), Some(4));
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 4, 10.0, disk(15.0));
        assert_eq!(t.len(), 12);
        assert!(t.is_connected(0.5));
        // Diagonal neighbors are sqrt(200) ≈ 14.1 m, inside the 15 m disk,
        // so the diameter is the Chebyshev distance.
        assert_eq!(t.diameter(0.5), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        line(0, 10.0, disk(15.0));
    }
}
