//! Protocol configuration for the synchronous-transmission stack.

use han_radio::capture::CaptureConfig;
use han_radio::phy;
use han_sim::time::SimDuration;

/// Configuration of Glossy floods and MiniCast rounds.
///
/// Defaults follow the paper's setup: a 2-second round period with slot
/// timing derived from 802.15.4 frame air time.
#[derive(Debug, Clone, PartialEq)]
pub struct StConfig {
    /// Period between consecutive communication rounds (paper: 2 s).
    pub round_period: SimDuration,
    /// TDMA slot length; must exceed the largest frame air time plus
    /// processing guard.
    pub slot_len: SimDuration,
    /// Number of transmissions each node makes per flood (Glossy N_TX).
    pub n_tx: u8,
    /// Slots allotted to one flood phase; bounds flood depth.
    pub flood_slots: usize,
    /// Maximum aggregate payload per packet, in bytes.
    pub max_packet_payload: usize,
    /// Standard deviation of relay transmit-timing jitter, in nanoseconds.
    ///
    /// Relays time their transmission off the reception instant, so this is
    /// small (sub-microsecond) regardless of crystal drift.
    pub tx_jitter_ns: u64,
    /// Probability that a transmitter fires desynchronized (offset far
    /// outside the constructive-interference window) in a given slot,
    /// e.g. due to a late interrupt. Breaks CI for that slot.
    pub desync_probability: f64,
    /// Capture / constructive-interference model parameters.
    pub capture: CaptureConfig,
}

impl Default for StConfig {
    fn default() -> Self {
        StConfig {
            round_period: SimDuration::from_secs(2),
            // Largest frame (4256 µs) + 744 µs turnaround/guard.
            slot_len: SimDuration::from_millis(5),
            n_tx: 2,
            flood_slots: 8,
            max_packet_payload: phy::MAX_PAYLOAD_BYTES,
            tx_jitter_ns: 200,
            desync_probability: 0.001,
            capture: CaptureConfig::default(),
        }
    }
}

impl StConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.slot_len < phy::max_frame_air_time() {
            return Err(format!(
                "slot length {} shorter than max frame air time {}",
                self.slot_len,
                phy::max_frame_air_time()
            ));
        }
        if self.n_tx == 0 {
            return Err("n_tx must be at least 1".into());
        }
        if self.flood_slots < 2 {
            return Err("flood needs at least 2 slots".into());
        }
        if self.max_packet_payload > phy::MAX_PAYLOAD_BYTES {
            return Err(format!(
                "packet payload {} exceeds PHY maximum {}",
                self.max_packet_payload,
                phy::MAX_PAYLOAD_BYTES
            ));
        }
        if !(0.0..=1.0).contains(&self.desync_probability) {
            return Err("desync probability must be in [0, 1]".into());
        }
        Ok(())
    }

    /// Duration of one flood phase.
    pub fn phase_duration(&self) -> SimDuration {
        self.slot_len * self.flood_slots as u64
    }

    /// How many flood phases fit in one round period.
    pub(crate) fn phases_per_round(&self) -> usize {
        (self.round_period.as_micros() / self.phase_duration().as_micros()) as usize
    }

    /// The largest network a round can serve: one sync phase plus one data
    /// phase per node must fit the round period.
    pub(crate) fn max_nodes_per_round(&self) -> usize {
        self.phases_per_round().saturating_sub(1)
    }

    /// Validates that a network of `n` nodes fits one round.
    ///
    /// # Errors
    ///
    /// Returns a description of the overrun.
    pub fn check_fits_round(&self, n: usize) -> Result<(), String> {
        let max = self.max_nodes_per_round();
        if n > max {
            return Err(format!(
                "{n} nodes need {} of airtime but the {} round fits only {max} \
                 data phases",
                self.phase_duration() * (n as u64 + 1),
                self.round_period
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        StConfig::default().validate().expect("default config");
    }

    #[test]
    fn default_fits_paper_round() {
        let cfg = StConfig::default();
        // One phase = 8 slots × 5 ms = 40 ms; 2 s round fits 50 phases —
        // comfortably more than 26 + sync.
        assert_eq!(cfg.phase_duration(), SimDuration::from_millis(40));
        assert_eq!(cfg.phases_per_round(), 50);
    }

    #[test]
    fn round_capacity_checks() {
        let cfg = StConfig::default();
        assert_eq!(cfg.max_nodes_per_round(), 49);
        assert!(cfg.check_fits_round(26).is_ok());
        assert!(cfg.check_fits_round(49).is_ok());
        let err = cfg.check_fits_round(50).unwrap_err();
        assert_eq!(
            err,
            "50 nodes need 2.040s of airtime but the 2.000s round fits only 49 data phases"
        );
    }

    #[test]
    fn rejects_short_slots() {
        let cfg = StConfig {
            slot_len: SimDuration::from_millis(1),
            ..StConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("slot length"));
    }

    #[test]
    fn rejects_zero_ntx_and_tiny_floods() {
        let cfg = StConfig {
            n_tx: 0,
            ..StConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = StConfig {
            flood_slots: 1,
            ..StConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_oversized_payload() {
        let cfg = StConfig {
            max_packet_payload: 500,
            ..StConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_probability() {
        let cfg = StConfig {
            desync_probability: 1.5,
            ..StConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
