//! SNR → packet-reception-rate model for 802.15.4 O-QPSK DSSS.
//!
//! We use the analytical bit-error-rate expression for the 2.4 GHz DSSS
//! O-QPSK PHY popularized by Zuniga & Krishnamachari (*Analyzing the
//! transitional region in low power wireless links*, SECON 2004), which
//! underlies TOSSIM's link model:
//!
//! ```text
//! BER(γ) = (8/15) · (1/16) · Σ_{k=2}^{16} (-1)^k · C(16,k) · exp(20·γ·(1/k − 1))
//! PRR(γ, f) = (1 − BER(γ))^(8·f)
//! ```
//!
//! where `γ` is the linear SNR and `f` the frame size in bytes. The formula
//! yields the characteristic sharp transitional region: below ~0 dB SNR
//! packets are essentially never received, above ~4 dB essentially always —
//! exactly the behaviour ST protocols exploit.

use crate::phy;
use crate::units::Dbm;

/// Binomial coefficients C(16, k) for k = 0..=16.
const CHOOSE_16: [f64; 17] = [
    1.0, 16.0, 120.0, 560.0, 1820.0, 4368.0, 8008.0, 11440.0, 12870.0, 11440.0, 8008.0, 4368.0,
    1820.0, 560.0, 120.0, 16.0, 1.0,
];

/// Bit error rate at linear SNR `gamma`.
///
/// Clamped to `[0, 0.5]`; at very low SNR the DSSS demodulator is no worse
/// than a coin flip.
pub(crate) fn bit_error_rate(gamma: f64) -> f64 {
    if gamma <= 0.0 {
        return 0.5;
    }
    let mut sum = 0.0;
    for (k, &choose) in CHOOSE_16.iter().enumerate().skip(2) {
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        sum += sign * choose * (20.0 * gamma * (1.0 / k as f64 - 1.0)).exp();
    }
    ((8.0 / 15.0) * (1.0 / 16.0) * sum).clamp(0.0, 0.5)
}

/// Packet reception rate for a frame of `frame_bytes` bytes at the given
/// signal and noise-plus-interference levels.
///
/// Returns 0 if the signal is below receiver sensitivity.
pub fn packet_reception_rate(signal: Dbm, noise_and_interference: Dbm, frame_bytes: usize) -> f64 {
    if signal < phy::SENSITIVITY {
        return 0.0;
    }
    let snr_db = signal - noise_and_interference;
    let gamma = 10f64.powf(snr_db / 10.0);
    let ber = bit_error_rate(gamma);
    (1.0 - ber).powi((8 * frame_bytes) as i32)
}

/// PRR against the thermal noise floor only, the tests' clean link.
#[cfg(test)]
pub(crate) fn prr_no_interference(signal: Dbm, frame_bytes: usize) -> f64 {
    packet_reception_rate(signal, phy::NOISE_FLOOR, frame_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: usize = 60;

    #[test]
    fn ber_limits() {
        assert_eq!(bit_error_rate(0.0), 0.5);
        assert_eq!(bit_error_rate(-1.0), 0.5);
        assert!(bit_error_rate(10.0) < 1e-12);
    }

    #[test]
    fn ber_monotone_decreasing() {
        let mut prev = 0.6;
        for snr_db in -10..=15 {
            let gamma = 10f64.powf(snr_db as f64 / 10.0);
            let ber = bit_error_rate(gamma);
            assert!(ber <= prev + 1e-15, "BER rose at {snr_db} dB");
            prev = ber;
        }
    }

    #[test]
    fn prr_transitional_region() {
        // Noise floor is -98 dBm; lock limit -101 dBm. Below the lock limit:
        // nothing; around the noise floor: partial; well above: certain.
        assert_eq!(prr_no_interference(Dbm(-102.0), FRAME), 0.0); // below lock limit
        let low = prr_no_interference(Dbm(-98.5), FRAME); // −0.5 dB SNR: transitional
        let high = prr_no_interference(Dbm(-90.0), FRAME); // 8 dB SNR
        assert!(high > 0.9999, "high={high}");
        assert!(low > 0.3 && low < 0.95, "low={low}");
    }

    #[test]
    fn prr_bounded() {
        for s in (-120..0).step_by(3) {
            let prr = prr_no_interference(Dbm(s as f64), FRAME);
            assert!((0.0..=1.0).contains(&prr));
        }
    }

    #[test]
    fn longer_frames_are_harder() {
        // In the transitional region (−0.5 dB SNR) frame size matters a lot.
        let sig = Dbm(-98.5);
        let short = packet_reception_rate(sig, phy::NOISE_FLOOR, 20);
        let long = packet_reception_rate(sig, phy::NOISE_FLOOR, 120);
        assert!(short > long + 0.1, "short={short} long={long}");
    }

    #[test]
    fn interference_lowers_prr() {
        let sig = Dbm(-80.0);
        let clean = packet_reception_rate(sig, phy::NOISE_FLOOR, FRAME);
        // Interference 3 dB above the signal pushes SINR to −3 dB.
        let jammed = packet_reception_rate(sig, Dbm(-77.0), FRAME);
        assert!(clean > 0.999);
        assert!(jammed < 0.05, "jammed={jammed}");
    }

    #[test]
    fn below_sensitivity_zero_even_with_low_noise() {
        assert_eq!(packet_reception_rate(Dbm(-102.0), Dbm(-120.0), FRAME), 0.0);
    }
}
