//! IEEE 802.15.4 (2.4 GHz O-QPSK) physical-layer timing and units.
//!
//! The paper's Device Interfaces carry CC2420-class transceivers (TelosB
//! motes). This module captures the PHY facts the rest of the stack needs:
//! symbol/byte air time, frame overhead, and dBm/mW conversions.
//!
//! Key constants of the 2.4 GHz O-QPSK PHY:
//!
//! * 250 kbit/s data rate, 62.5 ksymbol/s → **16 µs per symbol**,
//!   **32 µs per byte** (2 symbols per byte).
//! * Synchronization header: 4 preamble bytes + 1 SFD byte.
//! * PHY header: 1 length byte; max PSDU 127 bytes.

use crate::units::Dbm;
use han_sim::time::SimDuration;

/// Air time of one byte (2 O-QPSK symbols of 16 µs).
pub(crate) const BYTE_TIME: SimDuration = SimDuration::from_micros(32);

/// Preamble length in bytes.
pub(crate) const PREAMBLE_BYTES: usize = 4;

/// Start-of-frame-delimiter length in bytes.
pub(crate) const SFD_BYTES: usize = 1;

/// PHY header (frame length field) in bytes.
pub(crate) const PHY_HEADER_BYTES: usize = 1;

/// Maximum PHY service data unit (MAC frame) size in bytes.
pub(crate) const MAX_PSDU_BYTES: usize = 127;

/// MAC overhead we account for in ST frames: frame control (2), sequence
/// number (1), PAN id (2), FCS (2).
pub(crate) const MAC_OVERHEAD_BYTES: usize = 7;

/// Maximum application payload after MAC overhead.
pub const MAX_PAYLOAD_BYTES: usize = MAX_PSDU_BYTES - MAC_OVERHEAD_BYTES;

/// Errors arising from invalid PHY frame parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhyError {
    /// The requested payload exceeds [`MAX_PAYLOAD_BYTES`].
    PayloadTooLarge {
        /// Requested payload size in bytes.
        requested: usize,
        /// The allowed maximum.
        max: usize,
    },
}

impl std::fmt::Display for PhyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhyError::PayloadTooLarge { requested, max } => {
                write!(
                    f,
                    "payload of {requested} bytes exceeds PHY maximum of {max}"
                )
            }
        }
    }
}

impl std::error::Error for PhyError {}

/// Returns the on-air size in bytes of a frame with `payload` application
/// bytes, including synchronization header, PHY header and MAC overhead.
///
/// # Errors
///
/// Returns [`PhyError::PayloadTooLarge`] if the payload does not fit in one
/// frame.
pub fn frame_bytes(payload: usize) -> Result<usize, PhyError> {
    if payload > MAX_PAYLOAD_BYTES {
        return Err(PhyError::PayloadTooLarge {
            requested: payload,
            max: MAX_PAYLOAD_BYTES,
        });
    }
    Ok(PREAMBLE_BYTES + SFD_BYTES + PHY_HEADER_BYTES + MAC_OVERHEAD_BYTES + payload)
}

/// Returns the air time of a frame carrying `payload` application bytes.
///
/// # Errors
///
/// Returns [`PhyError::PayloadTooLarge`] if the payload does not fit in one
/// frame.
///
/// # Examples
///
/// ```
/// use han_radio::phy;
///
/// // An empty frame is 13 bytes on air: 416 µs.
/// let t = phy::air_time(0)?;
/// assert_eq!(t.as_micros(), 416);
/// # Ok::<(), han_radio::phy::PhyError>(())
/// ```
pub fn air_time(payload: usize) -> Result<SimDuration, PhyError> {
    Ok(BYTE_TIME * frame_bytes(payload)? as u64)
}

/// Air time of a maximum-size frame; a convenient slot-sizing bound.
pub fn max_frame_air_time() -> SimDuration {
    BYTE_TIME * (PREAMBLE_BYTES + SFD_BYTES + PHY_HEADER_BYTES + MAX_PSDU_BYTES) as u64
}

/// Duration of the synchronization header (preamble + SFD).
///
/// This is the window during which a receiver can still lock onto the
/// strongest of several concurrent transmitters (the *capture window*).
pub(crate) fn sync_header_time() -> SimDuration {
    BYTE_TIME * (PREAMBLE_BYTES + SFD_BYTES) as u64
}

/// Demodulator lock limit: signals below this are never received at all.
///
/// This sits ~3 dB *below* the effective noise floor; the datasheet
/// "sensitivity" figure (−94 dBm, defined as the 1 % PER point) emerges from
/// the SNR→PRR curve in [`crate::prr`] rather than from a hard gate, so the
/// model reproduces the transitional region of real links.
pub const SENSITIVITY: Dbm = Dbm(-101.0);

/// Thermal noise floor for a 2 MHz channel plus CC2420 noise figure.
pub const NOISE_FLOOR: Dbm = Dbm(-98.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_time_matches_250kbps() {
        // 250 kbit/s = 31.25 kB/s => 32 us per byte.
        assert_eq!(BYTE_TIME.as_micros(), 32);
    }

    #[test]
    fn empty_frame_air_time() {
        // 4 + 1 + 1 + 7 = 13 bytes => 416 us.
        assert_eq!(air_time(0).unwrap().as_micros(), 416);
    }

    #[test]
    fn full_frame_air_time() {
        // 4 + 1 + 1 + 127 = 133 bytes => 4256 us.
        assert_eq!(max_frame_air_time().as_micros(), 4256);
        assert_eq!(air_time(MAX_PAYLOAD_BYTES).unwrap(), max_frame_air_time());
    }

    #[test]
    fn oversized_payload_rejected() {
        let err = air_time(MAX_PAYLOAD_BYTES + 1).unwrap_err();
        assert_eq!(
            err,
            PhyError::PayloadTooLarge {
                requested: MAX_PAYLOAD_BYTES + 1,
                max: MAX_PAYLOAD_BYTES
            }
        );
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn sync_header_is_160us() {
        assert_eq!(sync_header_time().as_micros(), 160);
    }

    #[test]
    fn air_time_monotone_in_payload() {
        let mut prev = SimDuration::ZERO;
        for p in 0..=MAX_PAYLOAD_BYTES {
            let t = air_time(p).unwrap();
            assert!(t > prev);
            prev = t;
        }
    }
}
