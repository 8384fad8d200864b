//! Concurrent-transmission resolution: capture effect and constructive
//! interference.
//!
//! Synchronous-transmission protocols (Glossy, MiniCast) deliberately let
//! several nodes transmit *the same* frame at (nearly) the same instant.
//! Reception then succeeds because of two physical phenomena the paper's
//! communication plane relies on:
//!
//! * **Constructive / non-destructive interference** — identical frames whose
//!   start times differ by at most ~half a chip period (≈ 0.5 µs for 2.4 GHz
//!   O-QPSK) do not destroy each other; the receiver demodulates as if a
//!   single (slightly power-boosted) frame were on air.
//! * **Capture effect** — for *different* frames, the strongest signal is
//!   still decoded if it exceeds the sum of the others by the co-channel
//!   rejection threshold (≈ 3 dB for the CC2420) and arrives within the
//!   synchronization-header window (160 µs) of the first frame.
//!
//! [`resolve_slot`] applies these rules for a single receiver in a single
//! TDMA slot and draws the final packet-level outcome from the SNR→PRR model.

use crate::phy;
use crate::prr;
use crate::units::{sum_power_dbm, Dbm};
use han_sim::rng::DetRng;
use han_sim::time::SimDuration;

/// One signal incident on a receiver during a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct IncomingSignal {
    /// Index of the transmitter (opaque to this module).
    pub tx_index: usize,
    /// Received signal strength at this receiver.
    pub rssi: Dbm,
    /// Transmission start offset from the slot reference time.
    ///
    /// ST nodes are synchronized to within a few microseconds; relative
    /// offsets decide constructive-interference vs. capture treatment.
    pub offset: SimDuration,
    /// Content identity of the transmitted frame (equal ids ⇒ identical
    /// frames on air).
    pub content_id: u64,
}

/// Why a slot yielded no packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// No incident signal was above receiver sensitivity.
    BelowSensitivity,
    /// Concurrent different frames, none strong enough to capture.
    Collision,
    /// The winning signal was demodulated but the packet-level Bernoulli
    /// draw (PRR) failed — a channel bit error.
    ChannelError,
}

/// Outcome of one slot at one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// Nothing was on air above sensitivity.
    Silence,
    /// The frame from `tx_index` was received.
    Received {
        /// Index (within the input slice) of the winning transmitter.
        tx_index: usize,
    },
    /// A frame was on air but not received.
    Lost(LossReason),
}

/// Tunable parameters of the concurrent-reception model.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureConfig {
    /// Maximum start-time spread for constructive interference (default 0.5 µs).
    pub ci_window: SimDuration,
    /// Power gain applied to the strongest signal when identical frames
    /// overlap constructively (default +1 dB, conservative).
    pub ci_gain_db: f64,
    /// Co-channel rejection required for capture (default 3 dB).
    pub capture_threshold_db: f64,
    /// The strongest frame must start within this window of the earliest
    /// frame to be captured (default: sync header, 160 µs).
    pub capture_window: SimDuration,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            ci_window: SimDuration::from_micros(1),
            ci_gain_db: 1.0,
            capture_threshold_db: 3.0,
            capture_window: phy::sync_header_time(),
        }
    }
}

/// Resolves one receiver's slot given all incident signals.
///
/// `frame_bytes` is the on-air frame size used for the PRR draw; `rng`
/// supplies the packet-level Bernoulli randomness: one draw when a frame
/// reaches the PRR step, none on silence, sensitivity or collision.
///
/// The slot allocates nothing: it sorts `signals` in place, audible
/// signals strongest first (ties to the lower `tx_index`) and inaudible
/// ones last, so the caller's order is not kept.
///
/// The decision procedure is described in the [module docs](self).
pub fn resolve_slot(
    signals: &mut [IncomingSignal],
    config: &CaptureConfig,
    frame_bytes: usize,
    rng: &mut DetRng,
) -> SlotOutcome {
    let audible = |s: &IncomingSignal| s.rssi >= phy::SENSITIVITY;
    // Strongest-first; ties broken by tx index for determinism. Inaudible
    // signals (NaN included) compare equal among themselves and sort last.
    signals.sort_by(|a, b| match (audible(a), audible(b)) {
        (true, true) => b
            .rssi
            .partial_cmp(&a.rssi)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.tx_index.cmp(&b.tx_index)),
        (a_audible, b_audible) => b_audible.cmp(&a_audible),
    });
    let by_power = &signals[..signals.partition_point(audible)];
    if by_power.is_empty() {
        return if signals.is_empty() {
            SlotOutcome::Silence
        } else {
            SlotOutcome::Lost(LossReason::BelowSensitivity)
        };
    }
    let strongest = &by_power[0];

    let identical = by_power
        .iter()
        .all(|s| s.content_id == strongest.content_id);
    let min_offset = by_power
        .iter()
        .map(|s| s.offset)
        .min()
        .unwrap_or(SimDuration::ZERO);
    let max_offset = by_power
        .iter()
        .map(|s| s.offset)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let spread = max_offset - min_offset;

    let (signal, interference_dbm) = if identical && spread <= config.ci_window {
        // Constructive interference: a single effective frame, no
        // self-interference.
        (strongest.rssi + config.ci_gain_db, phy::NOISE_FLOOR)
    } else {
        // Capture attempt by the strongest signal.
        if strongest.offset.saturating_sub(min_offset) > config.capture_window {
            return SlotOutcome::Lost(LossReason::Collision);
        }
        let others = by_power[1..].iter().map(|s| s.rssi);
        let interference = sum_power_dbm(others.chain([phy::NOISE_FLOOR]));
        let sinr_db = strongest.rssi - interference;
        if sinr_db < config.capture_threshold_db {
            return SlotOutcome::Lost(LossReason::Collision);
        }
        (strongest.rssi, interference)
    };

    let p = prr::packet_reception_rate(signal, interference_dbm, frame_bytes);
    if rng.gen_bool(p) {
        SlotOutcome::Received {
            tx_index: strongest.tx_index,
        }
    } else {
        SlotOutcome::Lost(LossReason::ChannelError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: usize = 60;

    fn sig(tx: usize, rssi: f64, offset_us: u64, content: u64) -> IncomingSignal {
        IncomingSignal {
            tx_index: tx,
            rssi: Dbm(rssi),
            offset: SimDuration::from_micros(offset_us),
            content_id: content,
        }
    }

    fn resolve(signals: &[IncomingSignal]) -> SlotOutcome {
        let mut rng = DetRng::new(1);
        resolve_slot(
            &mut signals.to_vec(),
            &CaptureConfig::default(),
            FRAME,
            &mut rng,
        )
    }

    #[test]
    fn empty_slot_is_silence() {
        assert_eq!(resolve(&[]), SlotOutcome::Silence);
    }

    #[test]
    fn single_strong_signal_received() {
        assert_eq!(
            resolve(&[sig(3, -70.0, 0, 9)]),
            SlotOutcome::Received { tx_index: 3 }
        );
    }

    #[test]
    fn single_weak_signal_below_sensitivity() {
        assert_eq!(
            resolve(&[sig(0, -105.0, 0, 9)]),
            SlotOutcome::Lost(LossReason::BelowSensitivity)
        );
    }

    #[test]
    fn identical_synchronized_frames_interfere_constructively() {
        // Two equally strong identical frames — a plain capture rule would
        // fail (0 dB SINR), but CI succeeds.
        let out = resolve(&[sig(0, -75.0, 0, 42), sig(1, -75.0, 0, 42)]);
        assert_eq!(out, SlotOutcome::Received { tx_index: 0 });
    }

    #[test]
    fn identical_frames_outside_ci_window_fall_back_to_capture() {
        // Same content but 10 µs apart: no CI; equal power ⇒ no capture.
        let out = resolve(&[sig(0, -75.0, 0, 42), sig(1, -75.0, 10, 42)]);
        assert_eq!(out, SlotOutcome::Lost(LossReason::Collision));
    }

    #[test]
    fn different_frames_strong_captures_weak() {
        // 10 dB power gap ⇒ capture succeeds.
        let out = resolve(&[sig(0, -70.0, 0, 1), sig(1, -80.0, 0, 2)]);
        assert_eq!(out, SlotOutcome::Received { tx_index: 0 });
    }

    #[test]
    fn different_frames_similar_power_collide() {
        let out = resolve(&[sig(0, -75.0, 0, 1), sig(1, -76.0, 0, 2)]);
        assert_eq!(out, SlotOutcome::Lost(LossReason::Collision));
    }

    #[test]
    fn late_strong_frame_cannot_capture() {
        // Strongest arrives 200 µs after the first (past the sync header).
        let out = resolve(&[sig(0, -85.0, 0, 1), sig(1, -60.0, 200, 2)]);
        assert_eq!(out, SlotOutcome::Lost(LossReason::Collision));
    }

    #[test]
    fn capture_over_many_weak_interferers() {
        // One -65 dBm signal over three -85 dBm interferers:
        // interference sum ≈ -80.2 dBm ⇒ SINR ≈ 15 dB ⇒ capture.
        let out = resolve(&[
            sig(0, -65.0, 0, 1),
            sig(1, -85.0, 0, 2),
            sig(2, -85.0, 0, 3),
            sig(3, -85.0, 0, 4),
        ]);
        assert_eq!(out, SlotOutcome::Received { tx_index: 0 });
    }

    #[test]
    fn aggregate_interference_defeats_capture() {
        // Strongest only 4 dB above each of three interferers; the sum
        // erases the margin.
        let out = resolve(&[
            sig(0, -75.0, 0, 1),
            sig(1, -79.0, 0, 2),
            sig(2, -79.0, 0, 3),
            sig(3, -79.0, 0, 4),
        ]);
        assert_eq!(out, SlotOutcome::Lost(LossReason::Collision));
    }

    #[test]
    fn marginal_signal_sometimes_fails_channel_draw() {
        // Signal just above the noise floor: PRR in the transitional region,
        // so across many draws we must observe both outcomes.
        let mut rng = DetRng::new(7);
        let cfg = CaptureConfig::default();
        let mut signals = [sig(0, -98.3, 0, 1)];
        let mut received = 0;
        let mut lost = 0;
        for _ in 0..500 {
            match resolve_slot(&mut signals, &cfg, FRAME, &mut rng) {
                SlotOutcome::Received { .. } => received += 1,
                SlotOutcome::Lost(LossReason::ChannelError) => lost += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(received > 0 && lost > 0, "received={received} lost={lost}");
    }

    #[test]
    fn tie_power_breaks_by_tx_index() {
        let out = resolve(&[sig(5, -70.0, 0, 42), sig(2, -70.0, 0, 42)]);
        assert_eq!(out, SlotOutcome::Received { tx_index: 2 });
    }

    /// The allocating form of the rule: filter the audible signals into a
    /// fresh `Vec`, sort a copy of it, resolve. [`resolve_slot`] must
    /// match it outcome for outcome and draw for draw.
    fn resolve_filtered(
        signals: &[IncomingSignal],
        config: &CaptureConfig,
        frame_bytes: usize,
        rng: &mut DetRng,
    ) -> SlotOutcome {
        let audible: Vec<&IncomingSignal> = signals
            .iter()
            .filter(|s| s.rssi >= phy::SENSITIVITY)
            .collect();
        if audible.is_empty() {
            return if signals.is_empty() {
                SlotOutcome::Silence
            } else {
                SlotOutcome::Lost(LossReason::BelowSensitivity)
            };
        }
        let mut by_power = audible.clone();
        by_power.sort_by(|a, b| {
            b.rssi
                .partial_cmp(&a.rssi)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.tx_index.cmp(&b.tx_index))
        });
        let strongest = by_power[0];
        let identical = by_power
            .iter()
            .all(|s| s.content_id == strongest.content_id);
        let min_offset = by_power.iter().map(|s| s.offset).min().unwrap();
        let max_offset = by_power.iter().map(|s| s.offset).max().unwrap();
        let (signal, interference_dbm) = if identical && max_offset - min_offset <= config.ci_window
        {
            (strongest.rssi + config.ci_gain_db, phy::NOISE_FLOOR)
        } else {
            if strongest.offset.saturating_sub(min_offset) > config.capture_window {
                return SlotOutcome::Lost(LossReason::Collision);
            }
            let others = by_power[1..].iter().map(|s| s.rssi);
            let interference = sum_power_dbm(others.chain([phy::NOISE_FLOOR]));
            if strongest.rssi - interference < config.capture_threshold_db {
                return SlotOutcome::Lost(LossReason::Collision);
            }
            (strongest.rssi, interference)
        };
        let p = prr::packet_reception_rate(signal, interference_dbm, frame_bytes);
        if rng.gen_bool(p) {
            SlotOutcome::Received {
                tx_index: strongest.tx_index,
            }
        } else {
            SlotOutcome::Lost(LossReason::ChannelError)
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn in_place_sort_resolves_like_the_filtering_rule(
            raw in prop::collection::vec(
                (0usize..6, -106.0f64..-60.0, 0u64..250, 0u64..2, any::<bool>()),
                0..8,
            ),
            frame in 20usize..128,
            seed in any::<u64>(),
        ) {
            // Repeated tx indices and rounded levels force ties, and some
            // levels are NaN (never audible). Most offsets fall inside the
            // CI window, the rest around the capture window.
            let signals: Vec<IncomingSignal> = raw
                .iter()
                .map(|&(tx, rssi, offset, content, nan)| {
                    let rssi = if nan && tx == 5 { f64::NAN } else { rssi.round() };
                    let offset = if offset < 150 { offset % 2 } else { offset };
                    sig(tx, rssi, offset, content)
                })
                .collect();
            let cfg = CaptureConfig::default();
            let mut want_rng = DetRng::new(seed);
            let want = resolve_filtered(&signals, &cfg, frame, &mut want_rng);
            let mut got_rng = DetRng::new(seed);
            let got = resolve_slot(&mut signals.clone(), &cfg, frame, &mut got_rng);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_rng.state(), want_rng.state());
        }
    }
}
