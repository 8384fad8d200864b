//! The status record a Device Interface publishes each round.
//!
//! This is the datum MiniCast disseminates all-to-all: everything another DI
//! needs to schedule around this device. It has a compact, versioned wire
//! format (23 bytes) so that ~4 records fit in a single 802.15.4 frame
//! aggregate.
//!
//! Wire layout (little-endian):
//!
//! | bytes | field |
//! |---|---|
//! | 0 | device id (u8) |
//! | 1 | flags: bit0 = active, bit1 = element ON |
//! | 2–3 | ON time still owed in window, seconds (u16) |
//! | 4–7 | window deadline, seconds since start (u32; `MAX` = none) |
//! | 8 | windows remaining (u8, saturating) |
//! | 9–12 | request arrival, seconds since start (u32; `MAX` = none) |
//! | 13–16 | planned instance start, seconds (u32; `MAX` = none) |
//! | 17–18 | rated element power, watts (u16, saturating) |
//! | 19–20 | minDCD, seconds (u16, saturating) |
//! | 21–22 | maxDCP, seconds (u16, saturating) |

use crate::appliance::DeviceId;
use han_sim::time::{SimDuration, SimTime};
use std::fmt;

/// Encoded size of a [`StatusRecord`] on the wire.
pub(crate) const STATUS_WIRE_BYTES: usize = 23;

const NONE_U32: u32 = u32::MAX;

/// A device's shared scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusRecord {
    /// The publishing device.
    pub device: DeviceId,
    /// Whether a user request is being served.
    pub active: bool,
    /// Whether the power element is currently ON.
    pub on: bool,
    /// ON time still owed in the current window.
    pub owed: SimDuration,
    /// Current window deadline, while active.
    pub deadline: Option<SimTime>,
    /// Activity windows remaining, including the current one.
    pub windows_remaining: u32,
    /// Arrival time of the activating request, while active.
    pub arrival: Option<SimTime>,
    /// The start instant this device has committed its minDCD instance to
    /// (chosen by the collaborative placement algorithm), if any.
    pub planned_start: Option<SimTime>,
    /// Rated power of the switched element, in watts (used to weigh load
    /// balancing decisions across heterogeneous appliances).
    pub power_w: u16,
    /// This device's minDCD constraint (zero when inactive/unknown).
    pub min_dcd: SimDuration,
    /// This device's maxDCP constraint (zero when inactive/unknown).
    pub max_dcp: SimDuration,
}

/// Errors decoding a [`StatusRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStatusError {
    /// The byte slice was not exactly 23 bytes long.
    WrongLength {
        /// Bytes supplied.
        got: usize,
    },
    /// The flags byte used undefined bits.
    BadFlags {
        /// Offending byte.
        flags: u8,
    },
}

impl fmt::Display for DecodeStatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeStatusError::WrongLength { got } => {
                write!(
                    f,
                    "status record must be {STATUS_WIRE_BYTES} bytes, got {got}"
                )
            }
            DecodeStatusError::BadFlags { flags } => {
                write!(f, "undefined status flag bits in {flags:#04x}")
            }
        }
    }
}

impl std::error::Error for DecodeStatusError {}

impl StatusRecord {
    /// A record for an idle (inactive) device.
    pub fn idle(device: DeviceId) -> Self {
        StatusRecord {
            device,
            active: false,
            on: false,
            owed: SimDuration::ZERO,
            deadline: None,
            windows_remaining: 0,
            arrival: None,
            planned_start: None,
            power_w: 0,
            min_dcd: SimDuration::ZERO,
            max_dcp: SimDuration::ZERO,
        }
    }

    /// Serializes to the 23-byte wire format, appending to `out` — lets
    /// per-round publishers reuse one buffer instead of allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(STATUS_WIRE_BYTES);
        out.push(self.device.0 as u8);
        let mut flags = 0u8;
        if self.active {
            flags |= 0b01;
        }
        if self.on {
            flags |= 0b10;
        }
        out.push(flags);
        let owed_secs =
            u16::try_from(self.owed.as_secs().min(u64::from(u16::MAX))).expect("capped");
        out.extend_from_slice(&owed_secs.to_le_bytes());
        let deadline = self.deadline.map_or(NONE_U32, |d| {
            u32::try_from(d.as_secs().min(u64::from(NONE_U32 - 1))).expect("capped")
        });
        out.extend_from_slice(&deadline.to_le_bytes());
        out.push(u8::try_from(self.windows_remaining.min(255)).expect("capped"));
        let arrival = self.arrival.map_or(NONE_U32, |a| {
            u32::try_from(a.as_secs().min(u64::from(NONE_U32 - 1))).expect("capped")
        });
        out.extend_from_slice(&arrival.to_le_bytes());
        let planned = self.planned_start.map_or(NONE_U32, |p| {
            u32::try_from(p.as_secs().min(u64::from(NONE_U32 - 1))).expect("capped")
        });
        out.extend_from_slice(&planned.to_le_bytes());
        out.extend_from_slice(&self.power_w.to_le_bytes());
        let min_dcd =
            u16::try_from(self.min_dcd.as_secs().min(u64::from(u16::MAX))).expect("capped");
        out.extend_from_slice(&min_dcd.to_le_bytes());
        let max_dcp =
            u16::try_from(self.max_dcp.as_secs().min(u64::from(u16::MAX))).expect("capped");
        out.extend_from_slice(&max_dcp.to_le_bytes());
    }

    /// Decodes the 23-byte wire format.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeStatusError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeStatusError> {
        if bytes.len() != STATUS_WIRE_BYTES {
            return Err(DecodeStatusError::WrongLength { got: bytes.len() });
        }
        let flags = bytes[1];
        if flags & !0b11 != 0 {
            return Err(DecodeStatusError::BadFlags { flags });
        }
        let owed_secs = u16::from_le_bytes([bytes[2], bytes[3]]);
        let deadline = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let arrival = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
        let planned = u32::from_le_bytes([bytes[13], bytes[14], bytes[15], bytes[16]]);
        let power_w = u16::from_le_bytes([bytes[17], bytes[18]]);
        let min_dcd = u16::from_le_bytes([bytes[19], bytes[20]]);
        let max_dcp = u16::from_le_bytes([bytes[21], bytes[22]]);
        Ok(StatusRecord {
            device: DeviceId(u32::from(bytes[0])),
            active: flags & 0b01 != 0,
            on: flags & 0b10 != 0,
            owed: SimDuration::from_secs(u64::from(owed_secs)),
            deadline: (deadline != NONE_U32).then(|| SimTime::from_secs(u64::from(deadline))),
            windows_remaining: u32::from(bytes[8]),
            arrival: (arrival != NONE_U32).then(|| SimTime::from_secs(u64::from(arrival))),
            planned_start: (planned != NONE_U32).then(|| SimTime::from_secs(u64::from(planned))),
            power_w,
            min_dcd: SimDuration::from_secs(u64::from(min_dcd)),
            max_dcp: SimDuration::from_secs(u64::from(max_dcp)),
        })
    }
}

#[cfg(test)]
impl StatusRecord {
    /// Serializes to the 23-byte wire format.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(STATUS_WIRE_BYTES);
        self.encode_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusRecord {
        StatusRecord {
            device: DeviceId(7),
            active: true,
            on: true,
            owed: SimDuration::from_mins(8),
            deadline: Some(SimTime::from_mins(42)),
            windows_remaining: 2,
            arrival: Some(SimTime::from_mins(12)),
            planned_start: Some(SimTime::from_mins(27)),
            power_w: 1000,
            min_dcd: SimDuration::from_mins(15),
            max_dcp: SimDuration::from_mins(30),
        }
    }

    #[test]
    fn round_trip() {
        let rec = sample();
        let bytes = rec.encode();
        assert_eq!(bytes.len(), STATUS_WIRE_BYTES);
        let back = StatusRecord::decode(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn idle_round_trip() {
        let rec = StatusRecord::idle(DeviceId(0));
        let back = StatusRecord::decode(&rec.encode()).unwrap();
        assert_eq!(back, rec);
        assert!(!back.active && !back.on);
        assert_eq!(back.deadline, None);
        assert_eq!(back.arrival, None);
        assert_eq!(back.planned_start, None);
    }

    #[test]
    fn wrong_length_rejected() {
        assert_eq!(
            StatusRecord::decode(&[0u8; 5]),
            Err(DecodeStatusError::WrongLength { got: 5 })
        );
    }

    #[test]
    fn bad_flags_rejected() {
        let mut bytes = sample().encode();
        bytes[1] = 0xF0;
        assert_eq!(
            StatusRecord::decode(&bytes),
            Err(DecodeStatusError::BadFlags { flags: 0xF0 })
        );
    }

    #[test]
    fn second_resolution_rounds_down() {
        let rec = StatusRecord {
            owed: SimDuration::from_millis(1500),
            ..sample()
        };
        let back = StatusRecord::decode(&rec.encode()).unwrap();
        assert_eq!(back.owed, SimDuration::from_secs(1));
    }

    #[test]
    fn windows_saturate_at_255() {
        let rec = StatusRecord {
            windows_remaining: 1000,
            ..sample()
        };
        let back = StatusRecord::decode(&rec.encode()).unwrap();
        assert_eq!(back.windows_remaining, 255);
    }

    #[test]
    fn error_display() {
        assert!(DecodeStatusError::WrongLength { got: 3 }
            .to_string()
            .contains("23"));
        assert!(DecodeStatusError::BadFlags { flags: 0xFF }
            .to_string()
            .contains("0xff"));
    }
}
