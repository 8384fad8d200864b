//! Wireless propagation models.
//!
//! Converts a transmit power and a link geometry into a received signal
//! strength. Two models are provided:
//!
//! * [`ChannelModel::UnitDisk`] — idealized fixed-range connectivity, useful
//!   in unit tests where propagation must be exactly predictable;
//! * [`ChannelModel::LogDistance`] — the standard log-distance path-loss
//!   model with per-link log-normal shadowing, the usual choice for indoor
//!   802.15.4 deployments such as the FlockLab office testbed the paper
//!   evaluates on.
//!
//! Shadowing is *frozen per link* (sampled once from the link's id), so a
//! given topology has a stable link-quality matrix across a run, as a real
//! deployment does over the timescale of one experiment; fast fading is
//! left to the packet-level loss process in [`crate::prr`].

use crate::units::Dbm;
use han_sim::rng::DetRng;

/// A propagation model mapping (tx power, distance, link id) → RSSI.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelModel {
    /// Perfect reception within `range_m` metres, nothing beyond.
    ///
    /// RSSI is a fixed strong level inside the disk and negative infinity
    /// outside; no randomness.
    UnitDisk {
        /// Connectivity radius in metres.
        range_m: f64,
    },
    /// Log-distance path loss with log-normal shadowing:
    /// `PL(d) = pl_d0_db + 10·n·log10(d/d0) + X_σ`.
    LogDistance {
        /// Path loss in dB at the reference distance `d0_m`.
        pl_d0_db: f64,
        /// Reference distance in metres (usually 1 m).
        d0_m: f64,
        /// Path-loss exponent `n` (2.0 free space … 4.0 cluttered indoor).
        exponent: f64,
        /// Standard deviation of the shadowing term in dB.
        shadowing_sigma_db: f64,
        /// Seed from which per-link shadowing is frozen.
        seed: u64,
    },
}

impl ChannelModel {
    /// An indoor-office profile matching published CC2420 measurement
    /// campaigns: PL(1 m) = 55 dB, exponent 3.0, σ = 4 dB.
    pub fn indoor_office(seed: u64) -> Self {
        ChannelModel::LogDistance {
            pl_d0_db: 55.0,
            d0_m: 1.0,
            exponent: 3.0,
            shadowing_sigma_db: 4.0,
            seed,
        }
    }

    /// Like [`ChannelModel::indoor_office`] but without shadowing; handy for
    /// deterministic topology tests.
    pub fn indoor_office_no_shadowing() -> Self {
        ChannelModel::LogDistance {
            pl_d0_db: 55.0,
            d0_m: 1.0,
            exponent: 3.0,
            shadowing_sigma_db: 0.0,
            seed: 0,
        }
    }

    /// Computes the received signal strength over a link.
    ///
    /// `link_id` identifies the (directed) link for frozen shadowing;
    /// symmetric links can pass a canonical undirected id to obtain symmetric
    /// shadowing.
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is negative or NaN.
    pub fn rssi(&self, tx_power: Dbm, distance_m: f64, link_id: u64) -> Dbm {
        assert!(
            distance_m >= 0.0 && !distance_m.is_nan(),
            "distance must be non-negative, got {distance_m}"
        );
        match *self {
            ChannelModel::UnitDisk { range_m } => {
                if distance_m <= range_m {
                    // Comfortably above sensitivity, independent of distance.
                    tx_power - 40.0
                } else {
                    Dbm(f64::NEG_INFINITY)
                }
            }
            ChannelModel::LogDistance {
                pl_d0_db,
                d0_m,
                exponent,
                shadowing_sigma_db,
                seed,
            } => {
                // Below the reference distance the model is clamped to PL(d0).
                let d = distance_m.max(d0_m);
                let mut pl = pl_d0_db + 10.0 * exponent * (d / d0_m).log10();
                if shadowing_sigma_db > 0.0 {
                    let mut rng = DetRng::for_substream(seed, "shadowing", link_id);
                    pl += rng.gen_normal(0.0, shadowing_sigma_db);
                }
                tx_power - pl
            }
        }
    }
}

/// Canonical undirected link id for frozen shadowing, so that the channel
/// between nodes `a` and `b` is reciprocal.
pub fn undirected_link_id(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (u64::from(hi) << 32) | u64::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy;

    #[test]
    fn unit_disk_is_binary() {
        let ch = ChannelModel::UnitDisk { range_m: 10.0 };
        let inside = ch.rssi(Dbm(0.0), 9.9, 1);
        let outside = ch.rssi(Dbm(0.0), 10.1, 1);
        assert!(inside > phy::SENSITIVITY);
        assert_eq!(outside.0, f64::NEG_INFINITY);
    }

    #[test]
    fn log_distance_monotone_decreasing() {
        let ch = ChannelModel::indoor_office_no_shadowing();
        let mut prev = f64::INFINITY;
        for d in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
            let rssi = ch.rssi(Dbm(0.0), d, 0).0;
            assert!(rssi < prev, "rssi must fall with distance");
            prev = rssi;
        }
    }

    #[test]
    fn log_distance_reference_value() {
        // At d0 the loss equals pl_d0: 0 dBm - 55 dB = -55 dBm.
        let ch = ChannelModel::indoor_office_no_shadowing();
        let rssi = ch.rssi(Dbm(0.0), 1.0, 0).0;
        assert!((rssi + 55.0).abs() < 1e-9);
        // At 10 m with n=3: 55 + 30 = 85 dB loss.
        let rssi10 = ch.rssi(Dbm(0.0), 10.0, 0).0;
        assert!((rssi10 + 85.0).abs() < 1e-9);
    }

    #[test]
    fn sub_reference_distance_clamped() {
        let ch = ChannelModel::indoor_office_no_shadowing();
        assert_eq!(ch.rssi(Dbm(0.0), 0.1, 0).0, ch.rssi(Dbm(0.0), 1.0, 0).0);
    }

    #[test]
    fn shadowing_is_frozen_per_link() {
        let ch = ChannelModel::indoor_office(42);
        let a = ch.rssi(Dbm(0.0), 10.0, 7);
        let b = ch.rssi(Dbm(0.0), 10.0, 7);
        assert_eq!(a, b, "same link must shadow identically");
        let c = ch.rssi(Dbm(0.0), 10.0, 8);
        assert_ne!(a, c, "different links should differ");
    }

    #[test]
    fn shadowing_seed_changes_realization() {
        let ch1 = ChannelModel::indoor_office(1);
        let ch2 = ChannelModel::indoor_office(2);
        assert_ne!(ch1.rssi(Dbm(0.0), 10.0, 3), ch2.rssi(Dbm(0.0), 10.0, 3));
    }

    #[test]
    fn undirected_link_id_symmetric() {
        assert_eq!(undirected_link_id(3, 9), undirected_link_id(9, 3));
        assert_ne!(undirected_link_id(3, 9), undirected_link_id(3, 8));
    }

    #[test]
    #[should_panic(expected = "distance must be non-negative")]
    fn negative_distance_panics() {
        ChannelModel::indoor_office_no_shadowing().rssi(Dbm(0.0), -1.0, 0);
    }
}
