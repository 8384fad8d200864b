//! # han-radio — IEEE 802.15.4 radio model for synchronous transmission
//!
//! A packet-level model of the CC2420-class low-power radios carried by the
//! paper's Device Interfaces, detailed enough to reproduce the physical
//! effects the communication plane depends on:
//!
//! * [`phy`] — O-QPSK PHY timing (symbol/byte air time, frame overhead) and
//!   radio constants (sensitivity, noise floor);
//! * [`units`] — the [`units::Dbm`] newtype (linear power summation stays
//!   inside the crate);
//! * [`channel`] — unit-disk and log-distance + shadowing propagation;
//! * [`prr`] — the Zuniga–Krishnamachari SNR→BER→PRR link model;
//! * [`capture`] — capture-effect and constructive-interference resolution
//!   of concurrent synchronized transmissions.
//!
//! This crate is pure computation: the event-driven execution of slots and
//! rounds lives in `han-st`, which also reports the radio's duty cycle.
//!
//! # Public API
//!
//! What `han-net` and `han-st` call: the channel models, the PRR
//! functions, frame timing and its [`phy::PhyError`], [`Dbm`], and
//! [`capture::resolve_slot`] with its signal and outcome types. Everything
//! else is crate-private.
//!
//! # Examples
//!
//! Link budget of a 20 m indoor link:
//!
//! ```
//! use han_radio::channel::ChannelModel;
//! use han_radio::phy::NOISE_FLOOR;
//! use han_radio::prr;
//! use han_radio::units::Dbm;
//!
//! let ch = ChannelModel::indoor_office_no_shadowing();
//! let rssi = ch.rssi(Dbm(0.0), 20.0, 0);
//! let p = prr::packet_reception_rate(rssi, NOISE_FLOOR, 60);
//! assert!(p > 0.99); // a 20 m office link is comfortably reliable
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod capture;
pub mod channel;
pub mod phy;
pub mod prr;
pub mod units;

pub use capture::{CaptureConfig, IncomingSignal, LossReason, SlotOutcome};
pub use channel::ChannelModel;
pub use units::Dbm;

#[cfg(test)]
mod proptests {
    // Property-based tests of the radio model: monotonicity and determinism
    // properties the protocol layer relies on.
    use crate::capture::{resolve_slot, CaptureConfig, IncomingSignal, SlotOutcome};
    use crate::channel::ChannelModel;
    use crate::prr;
    use crate::units::{sum_power_dbm, Dbm};
    use han_sim::rng::DetRng;
    use han_sim::time::SimDuration;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prr_monotone_in_signal(frame in 10usize..120, base in -110.0f64..-60.0) {
            let low = prr::prr_no_interference(Dbm(base), frame);
            let high = prr::prr_no_interference(Dbm(base + 3.0), frame);
            prop_assert!(high >= low - 1e-12, "PRR fell as signal rose");
            prop_assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
        }

        #[test]
        fn prr_monotone_in_interference(frame in 10usize..120, noise in -100.0f64..-70.0) {
            let clean = prr::packet_reception_rate(Dbm(-75.0), Dbm(noise), frame);
            let dirty = prr::packet_reception_rate(Dbm(-75.0), Dbm(noise + 5.0), frame);
            prop_assert!(dirty <= clean + 1e-12, "more interference helped");
        }

        #[test]
        fn path_loss_monotone_in_distance(d in 1.0f64..60.0, seed in any::<u64>()) {
            let ch = ChannelModel::indoor_office_no_shadowing();
            let near = ch.rssi(Dbm(0.0), d, seed);
            let far = ch.rssi(Dbm(0.0), d + 5.0, seed);
            prop_assert!(far <= near, "signal grew with distance");
        }

        #[test]
        fn power_sum_at_least_strongest(levels in prop::collection::vec(-100.0f64..-40.0, 1..6)) {
            let strongest = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let total = sum_power_dbm(levels.iter().map(|&l| Dbm(l)));
            prop_assert!(total.0 >= strongest - 1e-9);
            // And no more than strongest + 10·log10(n).
            let bound = strongest + 10.0 * (levels.len() as f64).log10() + 1e-9;
            prop_assert!(total.0 <= bound);
        }

        #[test]
        fn capture_resolution_is_deterministic(
            rssis in prop::collection::vec(-100.0f64..-50.0, 1..5),
            seed in any::<u64>()
        ) {
            let mut signals: Vec<IncomingSignal> = rssis
                .iter()
                .enumerate()
                .map(|(i, &r)| IncomingSignal {
                    tx_index: i,
                    rssi: Dbm(r),
                    offset: SimDuration::from_micros(i as u64 % 2),
                    content_id: 42,
                })
                .collect();
            let cfg = CaptureConfig::default();
            let a = resolve_slot(&mut signals, &cfg, 60, &mut DetRng::new(seed));
            let b = resolve_slot(&mut signals, &cfg, 60, &mut DetRng::new(seed));
            prop_assert_eq!(a, b);
        }

        #[test]
        fn single_strong_signal_always_received(rssi in -85.0f64..-40.0, seed in any::<u64>()) {
            let mut signals = [IncomingSignal {
                tx_index: 0,
                rssi: Dbm(rssi),
                offset: SimDuration::ZERO,
                content_id: 1,
            }];
            let out = resolve_slot(&mut signals, &CaptureConfig::default(), 60, &mut DetRng::new(seed));
            prop_assert_eq!(out, SlotOutcome::Received { tx_index: 0 });
        }

        #[test]
        fn identical_synchronized_frames_never_collide(
            count in 2usize..6,
            rssi in -80.0f64..-50.0,
            seed in any::<u64>()
        ) {
            // Constructive interference: same content, sub-µs offsets.
            let mut signals: Vec<IncomingSignal> = (0..count)
                .map(|i| IncomingSignal {
                    tx_index: i,
                    rssi: Dbm(rssi),
                    offset: SimDuration::ZERO,
                    content_id: 7,
                })
                .collect();
            let out = resolve_slot(&mut signals, &CaptureConfig::default(), 60, &mut DetRng::new(seed));
            prop_assert!(
                matches!(out, SlotOutcome::Received { .. }),
                "CI frames collided: {out:?}"
            );
        }
    }
}
