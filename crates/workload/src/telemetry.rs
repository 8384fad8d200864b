//! Telemetry events: the external-world stream an online driver ingests.
//!
//! A batch scenario fixes its whole workload up front; a *live* home does
//! not. A [`TelemetryEvent`] is one externally observed fact — a device
//! request arriving, an occupant releasing a device early, the feeder
//! changing its admission cap or tariff, a node crashing or rejoining, a
//! communication blackout — delivered to a running simulation instead of
//! baked into it. The online subsystem in `han-core` translates each event
//! into the same request, command or fault the batch path would have used,
//! which is what makes streamed and batch execution bit-identical.
//!
//! # Grammar
//!
//! Events parse from a compact spec (semicolon-separated entries, whole
//! minutes by default), with sub-minute suffixes because replaying a
//! Poisson workload bit-identically needs microsecond instants. The CLI
//! fault plan is its fault entries (`down`, `up`, `outage`, `sigloss`):
//!
//! ```text
//! arrive:DEV@T         request for device DEV at time T (one window)
//! arrive:DEV*W@T       ... obliging W duty-cycle windows
//! done:DEV@T           occupant releases DEV at T (early-off request;
//!                      minDCD still wins — see the online driver)
//! cap:KW@T             feeder admission cap becomes KW kilowatts at T
//! cap:none@T           feeder lifts the cap at T
//! tariff:RATE@T        flat tariff becomes RATE per kWh at T
//! down:N@T  up:N@T     node churn (same semantics as the fault plan)
//! outage:F-U           CP blackout over [F, U)
//! sigloss:F-U          feeder-signal dropout over [F, U)
//! ```
//!
//! Times are non-negative integers: plain (`10` = 10 minutes), seconds
//! (`30s`), or microseconds (`8123456us`). [`TelemetryEvent`]'s `Display`
//! prints the canonical spec back, so a telemetry log round-trips through
//! text — the online checkpoint format stores it exactly that way.
//!
//! ```
//! use han_workload::telemetry::TelemetryEvent;
//!
//! let events = TelemetryEvent::parse_script("arrive:3@10; cap:5.5@20; up:3@30").unwrap();
//! assert_eq!(events.len(), 3);
//! assert_eq!(events[0].to_string(), "arrive:3@10");
//! ```

use crate::fleet::ScenarioError;
use han_device::appliance::DeviceId;
use han_sim::time::SimTime;
use std::fmt;

/// One externally observed fact, timestamped in simulation time.
///
/// Node-churn and blackout variants mirror the fault plan's event shapes
/// (this crate sits *below* `han-core`, so it cannot name `FaultEvent`
/// directly); the online driver translates them one-to-one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A request for `device` arrives at `at`, obliging `windows`
    /// duty-cycle windows.
    Arrival {
        /// The requested device.
        device: DeviceId,
        /// Arrival instant.
        at: SimTime,
        /// Duty-cycle windows obliged (≥ 1).
        windows: u32,
    },
    /// The occupant releases `device` at `at` — an early-off request. The
    /// minDCD interlock still applies: a release inside a minimum
    /// duty-cycle duration is refused (and counted), never violated.
    Completion {
        /// The released device.
        device: DeviceId,
        /// Release instant.
        at: SimTime,
    },
    /// The feeder's admission cap changes at `at`; `None` lifts it.
    CapChange {
        /// When the new cap takes effect.
        at: SimTime,
        /// The new cap in kW, or `None` for unconstrained.
        cap_kw: Option<f64>,
    },
    /// The flat tariff changes at `at`.
    Tariff {
        /// When the new rate takes effect.
        at: SimTime,
        /// The new rate, currency per kWh.
        rate_per_kwh: f64,
    },
    /// Node `node` crashes at `at` (mirrors the fault plan's `NodeDown`).
    NodeDown {
        /// When the node goes down.
        at: SimTime,
        /// The node (device interface) index.
        node: usize,
    },
    /// Node `node` rejoins at `at` (mirrors the fault plan's `NodeUp`).
    NodeUp {
        /// When the node comes back.
        at: SimTime,
        /// The node (device interface) index.
        node: usize,
    },
    /// A correlated CP blackout over `[from, until)`.
    CpOutage {
        /// Start of the blackout (inclusive).
        from: SimTime,
        /// End of the blackout (exclusive).
        until: SimTime,
    },
    /// The feeder's cap broadcast is lost over `[from, until)`.
    SignalLoss {
        /// Start of the dropout (inclusive).
        from: SimTime,
        /// End of the dropout (exclusive).
        until: SimTime,
    },
}

impl TelemetryEvent {
    /// The instant the event takes effect (window events: their start).
    pub fn effective_at(&self) -> SimTime {
        match *self {
            TelemetryEvent::Arrival { at, .. }
            | TelemetryEvent::Completion { at, .. }
            | TelemetryEvent::CapChange { at, .. }
            | TelemetryEvent::Tariff { at, .. }
            | TelemetryEvent::NodeDown { at, .. }
            | TelemetryEvent::NodeUp { at, .. } => at,
            TelemetryEvent::CpOutage { from, .. } | TelemetryEvent::SignalLoss { from, .. } => from,
        }
    }

    /// Parses one spec entry (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidTelemetry`] naming the entry and the reason.
    pub fn parse(entry: &str) -> Result<Self, ScenarioError> {
        let entry = entry.trim();
        let bad = |why: &str| ScenarioError::InvalidTelemetry {
            reason: format!("cannot parse '{entry}': {why}"),
        };
        let (kind, body) = entry
            .split_once(':')
            .ok_or_else(|| bad("expected 'kind:...'"))?;
        let event = match kind.trim() {
            "arrive" => {
                let (target, at) = body
                    .split_once('@')
                    .ok_or_else(|| bad("expected 'DEV[*W]@T'"))?;
                let (dev, windows) = match target.split_once('*') {
                    Some((dev, w)) => {
                        let windows: u32 = w
                            .trim()
                            .parse()
                            .map_err(|_| bad("window count must be a positive integer"))?;
                        (dev, windows)
                    }
                    None => (target, 1),
                };
                if windows == 0 {
                    return Err(bad("window count must be at least 1"));
                }
                let device: u32 = dev
                    .trim()
                    .parse()
                    .map_err(|_| bad("device must be a non-negative integer"))?;
                TelemetryEvent::Arrival {
                    device: DeviceId(device),
                    at: parse_instant(at).map_err(&bad)?,
                    windows,
                }
            }
            "done" => {
                let (dev, at) = body
                    .split_once('@')
                    .ok_or_else(|| bad("expected 'DEV@T'"))?;
                let device: u32 = dev
                    .trim()
                    .parse()
                    .map_err(|_| bad("device must be a non-negative integer"))?;
                TelemetryEvent::Completion {
                    device: DeviceId(device),
                    at: parse_instant(at).map_err(&bad)?,
                }
            }
            "cap" => {
                let (kw, at) = body.split_once('@').ok_or_else(|| bad("expected 'KW@T'"))?;
                let cap_kw = match kw.trim() {
                    "none" => None,
                    kw => {
                        let kw: f64 = kw
                            .parse()
                            .map_err(|_| bad("cap must be a number of kilowatts or 'none'"))?;
                        if !kw.is_finite() || kw < 0.0 {
                            return Err(bad("cap must be finite and non-negative"));
                        }
                        Some(kw)
                    }
                };
                TelemetryEvent::CapChange {
                    at: parse_instant(at).map_err(&bad)?,
                    cap_kw,
                }
            }
            "tariff" => {
                let (rate, at) = body
                    .split_once('@')
                    .ok_or_else(|| bad("expected 'RATE@T'"))?;
                let rate_per_kwh: f64 = rate
                    .trim()
                    .parse()
                    .map_err(|_| bad("rate must be a number per kWh"))?;
                if !rate_per_kwh.is_finite() || rate_per_kwh < 0.0 {
                    return Err(bad("rate must be finite and non-negative"));
                }
                TelemetryEvent::Tariff {
                    at: parse_instant(at).map_err(&bad)?,
                    rate_per_kwh,
                }
            }
            k @ ("down" | "up") => {
                let (node, at) = body
                    .split_once('@')
                    .ok_or_else(|| bad("expected 'NODE@T'"))?;
                let node: usize = node
                    .trim()
                    .parse()
                    .map_err(|_| bad("node must be a non-negative integer"))?;
                let at = parse_instant(at).map_err(&bad)?;
                if k == "down" {
                    TelemetryEvent::NodeDown { at, node }
                } else {
                    TelemetryEvent::NodeUp { at, node }
                }
            }
            k @ ("outage" | "sigloss") => {
                let (from, until) = body
                    .split_once('-')
                    .ok_or_else(|| bad("expected 'FROM-UNTIL'"))?;
                let from = parse_instant(from).map_err(&bad)?;
                let until = parse_instant(until).map_err(&bad)?;
                if from >= until {
                    return Err(bad("window is empty (from must precede until)"));
                }
                if k == "outage" {
                    TelemetryEvent::CpOutage { from, until }
                } else {
                    TelemetryEvent::SignalLoss { from, until }
                }
            }
            other => {
                return Err(bad(&format!(
                    "unknown event kind '{other}' \
                     (arrive/done/cap/tariff/down/up/outage/sigloss)"
                )))
            }
        };
        Ok(event)
    }

    /// Parses a whole telemetry script: entries separated by semicolons
    /// and/or newlines, blank entries skipped, `#` lines treated as
    /// comments. Events are returned **in script order** — a replay file is
    /// a log, and the online driver applies each event at its effective
    /// instant regardless of where it sits in the file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidTelemetry`] for the first bad entry.
    pub fn parse_script(spec: &str) -> Result<Vec<Self>, ScenarioError> {
        let mut events = Vec::new();
        for line in spec.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            for entry in line.split(';') {
                if entry.trim().is_empty() {
                    continue;
                }
                events.push(TelemetryEvent::parse(entry)?);
            }
        }
        Ok(events)
    }
}

impl fmt::Display for TelemetryEvent {
    /// Prints the canonical spec entry; [`TelemetryEvent::parse`] of the
    /// output yields the event back (floats use Rust's shortest
    /// round-trip formatting).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TelemetryEvent::Arrival {
                device,
                at,
                windows: 1,
            } => write!(f, "arrive:{}@{}", device.0, Instant(at)),
            TelemetryEvent::Arrival {
                device,
                at,
                windows,
            } => write!(f, "arrive:{}*{windows}@{}", device.0, Instant(at)),
            TelemetryEvent::Completion { device, at } => {
                write!(f, "done:{}@{}", device.0, Instant(at))
            }
            TelemetryEvent::CapChange { at, cap_kw: None } => {
                write!(f, "cap:none@{}", Instant(at))
            }
            TelemetryEvent::CapChange {
                at,
                cap_kw: Some(kw),
            } => write!(f, "cap:{kw}@{}", Instant(at)),
            TelemetryEvent::Tariff { at, rate_per_kwh } => {
                write!(f, "tariff:{rate_per_kwh}@{}", Instant(at))
            }
            TelemetryEvent::NodeDown { at, node } => write!(f, "down:{node}@{}", Instant(at)),
            TelemetryEvent::NodeUp { at, node } => write!(f, "up:{node}@{}", Instant(at)),
            TelemetryEvent::CpOutage { from, until } => {
                write!(f, "outage:{}-{}", Instant(from), Instant(until))
            }
            TelemetryEvent::SignalLoss { from, until } => {
                write!(f, "sigloss:{}-{}", Instant(from), Instant(until))
            }
        }
    }
}

/// Range-checks every device / node index in a telemetry stream against
/// the fleet size — the online-ingest counterpart of the fault plan's
/// `validate_nodes`.
///
/// # Errors
///
/// [`ScenarioError::InvalidTelemetry`] naming the first out-of-range event.
pub fn validate_telemetry(
    events: &[TelemetryEvent],
    device_count: usize,
) -> Result<(), ScenarioError> {
    for ev in events {
        let index = match *ev {
            TelemetryEvent::Arrival { device, .. } | TelemetryEvent::Completion { device, .. } => {
                Some(device.0 as usize)
            }
            TelemetryEvent::NodeDown { node, .. } | TelemetryEvent::NodeUp { node, .. } => {
                Some(node)
            }
            _ => None,
        };
        if let Some(index) = index {
            if index >= device_count {
                return Err(ScenarioError::InvalidTelemetry {
                    reason: format!(
                        "'{ev}' targets node {index}, out of range for a fleet of \
                         {device_count} devices"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Parses one instant: a non-negative integer, plain (minutes), with an
/// `s` suffix (seconds) or a `us` suffix (microseconds).
fn parse_instant(s: &str) -> Result<SimTime, &'static str> {
    let s = s.trim();
    let (digits, micros_per_unit) = if let Some(d) = s.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (s, 60_000_000)
    };
    let value: u64 = digits
        .trim()
        .parse()
        .map_err(|_| "time must be a non-negative integer (minutes, or with an s/us suffix)")?;
    value
        .checked_mul(micros_per_unit)
        .map(SimTime::from_micros)
        .ok_or("time is beyond the representable range")
}

/// Canonical instant formatting: whole minutes plain, whole seconds with
/// `s`, anything finer in microseconds.
struct Instant(SimTime);

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0.as_micros();
        if us.is_multiple_of(60_000_000) {
            write!(f, "{}", us / 60_000_000)
        } else if us.is_multiple_of(1_000_000) {
            write!(f, "{}s", us / 1_000_000)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn parse_covers_every_kind() {
        let events = TelemetryEvent::parse_script(
            "arrive:3@10; arrive:4*2@11; done:3@25; cap:5.5@20; cap:none@30; \
             tariff:0.12@40; down:1@50; up:1@60; outage:70-75; sigloss:80-90",
        )
        .unwrap();
        assert_eq!(
            events,
            vec![
                TelemetryEvent::Arrival {
                    device: DeviceId(3),
                    at: t(10),
                    windows: 1
                },
                TelemetryEvent::Arrival {
                    device: DeviceId(4),
                    at: t(11),
                    windows: 2
                },
                TelemetryEvent::Completion {
                    device: DeviceId(3),
                    at: t(25)
                },
                TelemetryEvent::CapChange {
                    at: t(20),
                    cap_kw: Some(5.5)
                },
                TelemetryEvent::CapChange {
                    at: t(30),
                    cap_kw: None
                },
                TelemetryEvent::Tariff {
                    at: t(40),
                    rate_per_kwh: 0.12
                },
                TelemetryEvent::NodeDown { at: t(50), node: 1 },
                TelemetryEvent::NodeUp { at: t(60), node: 1 },
                TelemetryEvent::CpOutage {
                    from: t(70),
                    until: t(75)
                },
                TelemetryEvent::SignalLoss {
                    from: t(80),
                    until: t(90)
                },
            ]
        );
    }

    #[test]
    fn sub_minute_suffixes_reach_microsecond_resolution() {
        assert_eq!(
            TelemetryEvent::parse("arrive:0@90s")
                .unwrap()
                .effective_at(),
            SimTime::from_secs(90)
        );
        assert_eq!(
            TelemetryEvent::parse("arrive:0@8123456us")
                .unwrap()
                .effective_at(),
            SimTime::from_micros(8_123_456)
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        let script = "arrive:3*2@10; done:3@90s; cap:5.5@20; cap:none@8123456us; \
                      tariff:0.12@40; down:1@50; up:1@60; outage:70-75; sigloss:80-90";
        for ev in TelemetryEvent::parse_script(script).unwrap() {
            let reparsed = TelemetryEvent::parse(&ev.to_string()).unwrap();
            assert_eq!(reparsed, ev, "round-trip of '{ev}'");
        }
    }

    #[test]
    fn comments_and_newlines_are_script_structure() {
        let events = TelemetryEvent::parse_script(
            "# a replay log\narrive:0@1\n\n  # mid-file comment\ndown:0@2; up:0@3\n",
        )
        .unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn malformed_entries_are_typed_errors() {
        for bad in [
            "explode:1@2",
            "arrive:1",
            "arrive:x@2",
            "arrive:1*0@2",
            "arrive:1@-5",
            "cap:fast@1",
            "cap:inf@1",
            "tariff:-1@1",
            "outage:9-9",
            "nonsense",
            "done:1@2h",
            "arrive:1@400000000000",
        ] {
            assert!(
                matches!(
                    TelemetryEvent::parse(bad),
                    Err(ScenarioError::InvalidTelemetry { .. })
                ),
                "entry '{bad}' must be rejected"
            );
        }
        assert!(TelemetryEvent::parse_script("").unwrap().is_empty());
    }

    #[test]
    fn device_and_node_ranges_are_checked() {
        let events = TelemetryEvent::parse_script("arrive:2@1; down:1@2; cap:3@4").unwrap();
        assert!(validate_telemetry(&events, 3).is_ok());
        let err = validate_telemetry(&events, 2).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidTelemetry { .. }));
        assert!(err.to_string().contains("out of range"));
    }
}
