//! Telemetry ingest: validation and translation of externally observed
//! events into the round loop's injection queue.
//!
//! Every event entering the online service — over the wire via
//! `INJECT`, or from a `--replay` script — passes through
//! `translate`: range checks against the fleet, a staleness check
//! against the rounds already executed, a horizon check against the
//! simulated window, and finally the mapping onto one of the three
//! internal channels:
//!
//! * **injections** — arrivals, early completions and cap changes queue
//!   against the round that absorbs them and drain in
//!   the round loop's inject phase, before that round's fault application
//!   and request delivery;
//! * **fault timeline** — node churn and blackout windows append to the
//!   live [`FaultPlan`](crate::fault::FaultPlan) at ingest time (its
//!   per-round scans are stateless, so new events simply start
//!   matching);
//! * **tariff history** — rate changes are reporting-level only and
//!   never touch the scheduler.
//!
//! Everything here is deterministic and side-effect free; the driver
//! applies the returned `Action`.

use crate::checkpoint::CheckpointError;
use crate::fault::FaultEvent;
use crate::simulation::Injection;
use han_device::request::Request;
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::ScenarioError;
use han_workload::scenario::validate_trace_window;
use han_workload::signal::PowerCapProfile;
use han_workload::telemetry::{validate_telemetry, TelemetryEvent};
use std::fmt;

/// Everything that can go wrong in the online service, end to end:
/// ingest validation, protocol parsing, checkpoint I/O.
#[derive(Debug)]
pub enum OnlineError {
    /// The event failed scenario-level validation (bad index, bad
    /// window, malformed spec).
    Scenario(ScenarioError),
    /// A service snapshot failed to decode or did not match the
    /// configuration it was restored under.
    Checkpoint(CheckpointError),
    /// The event's absorbing round has already executed; the past
    /// cannot be rewritten.
    Stale {
        /// The round that would have absorbed the event.
        round: u64,
        /// The round the driver will execute next.
        next_round: u64,
    },
    /// The event takes effect after the simulated window ends.
    BeyondHorizon {
        /// When the event takes effect.
        at: SimTime,
        /// The end of the simulated window.
        horizon: SimTime,
    },
    /// The run has already completed; nothing further can be ingested.
    Finished,
    /// A protocol command named a node outside the fleet.
    UnknownNode {
        /// The requested node index.
        node: usize,
        /// The fleet size.
        fleet: usize,
    },
    /// A protocol line did not parse.
    BadCommand {
        /// What was wrong with it.
        reason: String,
    },
    /// A checkpoint file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, stringified (keeps the type `Clone`-free
        /// but comparable in tests).
        error: String,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Scenario(e) => write!(f, "{e}"),
            OnlineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            OnlineError::Stale { round, next_round } => write!(
                f,
                "stale event: absorbing round {round} already executed (next round {next_round})"
            ),
            OnlineError::BeyondHorizon { at, horizon } => write!(
                f,
                "event at {at} lies beyond the simulated horizon {horizon}"
            ),
            OnlineError::Finished => write!(f, "the run has already completed"),
            OnlineError::UnknownNode { node, fleet } => {
                write!(f, "node {node} outside the fleet (devices 0..{fleet})")
            }
            OnlineError::BadCommand { reason } => write!(f, "bad command: {reason}"),
            OnlineError::Io { path, error } => write!(f, "{path}: {error}"),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<ScenarioError> for OnlineError {
    fn from(e: ScenarioError) -> Self {
        OnlineError::Scenario(e)
    }
}

impl From<CheckpointError> for OnlineError {
    fn from(e: CheckpointError) -> Self {
        OnlineError::Checkpoint(e)
    }
}

/// The round that absorbs an event effective at `at`: the first round
/// whose phase instant (`round × period`) is not earlier than `at`.
/// Injections drained at that round land before its request delivery,
/// exactly where a batch trace containing the event would have put it.
pub(crate) fn absorbing_round(at: SimTime, period: SimDuration) -> u64 {
    let p = period.as_micros();
    at.as_micros().div_ceil(p)
}

/// Merges a cap change at `at` into the profile currently in force:
/// every step before `at` is kept, one new step at `at` carries the new
/// cap (`None` = unconstrained, encoded as `f64::INFINITY`). The merged
/// profile is the one a batch run of the same events plans under from
/// round zero, and the one a service snapshot records.
pub(crate) fn merge_cap(
    current: Option<&PowerCapProfile>,
    at: SimTime,
    cap_kw: Option<f64>,
) -> Result<PowerCapProfile, ScenarioError> {
    let mut steps: Vec<(SimTime, f64)> = match current {
        Some(profile) => profile.steps().to_vec(),
        None => vec![(SimTime::ZERO, f64::INFINITY)],
    };
    steps.retain(|(t, _)| *t < at);
    if steps.is_empty() {
        // The change lands at the very origin: it *is* the profile.
        steps.push((SimTime::ZERO, cap_kw.unwrap_or(f64::INFINITY)));
        if at > SimTime::ZERO {
            // Unreachable in practice (retain keeps the ZERO step), but
            // keep the invariant airtight.
            steps[0].0 = SimTime::ZERO;
        }
    } else {
        steps.push((at, cap_kw.unwrap_or(f64::INFINITY)));
    }
    PowerCapProfile::from_steps(steps)
}

/// What the driver must do with one validated event.
#[derive(Debug)]
pub(crate) enum Action {
    /// Queue an injection against its absorbing round.
    Inject {
        /// The absorbing round.
        round: u64,
        /// The translated action.
        injection: Injection,
    },
    /// Append to the live fault timeline (takes effect via the plan's
    /// stateless per-round scans).
    Fault(FaultEvent),
    /// Record a tariff change (reporting-level only).
    Tariff {
        /// When the new rate takes effect.
        at: SimTime,
        /// The new flat rate, currency per kWh.
        rate_per_kwh: f64,
    },
}

/// The immutable facts [`translate`] validates against.
pub(crate) struct IngestContext<'a> {
    /// The round the driver will execute next.
    pub next_round: u64,
    /// The round period.
    pub period: SimDuration,
    /// The simulated window length.
    pub duration: SimDuration,
    /// Fleet size (device/node indices must stay below it).
    pub device_count: usize,
    /// The admission-cap profile currently in force (base config merged
    /// with every cap change ingested so far).
    pub cap: Option<&'a PowerCapProfile>,
}

/// Validates one telemetry event and translates it into an [`Action`].
///
/// # Errors
///
/// [`OnlineError::Scenario`] on range/window violations,
/// [`OnlineError::Stale`] when the absorbing round has already run,
/// [`OnlineError::BeyondHorizon`] when the event postdates the window.
pub(crate) fn translate(
    event: &TelemetryEvent,
    ctx: &IngestContext<'_>,
) -> Result<Action, OnlineError> {
    validate_telemetry(std::slice::from_ref(event), ctx.device_count)?;

    let at = event.effective_at();
    let round = absorbing_round(at, ctx.period);
    if round < ctx.next_round {
        return Err(OnlineError::Stale {
            round,
            next_round: ctx.next_round,
        });
    }
    let horizon = SimTime::ZERO + ctx.duration;
    if at > horizon {
        return Err(OnlineError::BeyondHorizon { at, horizon });
    }

    Ok(match *event {
        TelemetryEvent::Arrival {
            device,
            at,
            windows,
        } => {
            let request = Request::with_windows(device, at, windows);
            // Same contract as a batch trace: the online ingest path
            // replays externally supplied arrivals through the very
            // check the scenario validator applies.
            validate_trace_window(std::slice::from_ref(&request), ctx.duration)?;
            Action::Inject {
                round,
                injection: Injection::Arrival(request),
            }
        }
        TelemetryEvent::Completion { device, .. } => Action::Inject {
            round,
            injection: Injection::Completion(device),
        },
        TelemetryEvent::CapChange { at, cap_kw } => {
            let merged = merge_cap(ctx.cap, at, cap_kw)?;
            Action::Inject {
                round,
                injection: Injection::CapChange(Some(merged)),
            }
        }
        TelemetryEvent::Tariff { at, rate_per_kwh } => Action::Tariff { at, rate_per_kwh },
        TelemetryEvent::NodeDown { .. }
        | TelemetryEvent::NodeUp { .. }
        | TelemetryEvent::CpOutage { .. }
        | TelemetryEvent::SignalLoss { .. } => {
            Action::Fault(FaultEvent::from_telemetry(event).expect("a fault kind"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_device::appliance::DeviceId;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ctx(next_round: u64, cap: Option<&PowerCapProfile>) -> IngestContext<'_> {
        IngestContext {
            next_round,
            period: SimDuration::from_secs(2),
            duration: SimDuration::from_mins(10),
            device_count: 4,
            cap,
        }
    }

    #[test]
    fn absorbing_round_is_the_first_round_at_or_after() {
        let p = SimDuration::from_secs(2);
        assert_eq!(absorbing_round(SimTime::ZERO, p), 0);
        assert_eq!(absorbing_round(SimTime::from_micros(1), p), 1);
        assert_eq!(absorbing_round(secs(2), p), 1);
        assert_eq!(absorbing_round(secs(3), p), 2);
        assert_eq!(absorbing_round(secs(4), p), 2);
    }

    #[test]
    fn stale_events_are_rejected() {
        let ev = TelemetryEvent::Arrival {
            device: DeviceId(1),
            at: secs(2),
            windows: 1,
        };
        let err = translate(&ev, &ctx(5, None)).unwrap_err();
        assert!(matches!(
            err,
            OnlineError::Stale {
                round: 1,
                next_round: 5
            }
        ));
        // The same event is fine while its round is still ahead.
        assert!(translate(&ev, &ctx(1, None)).is_ok());
    }

    #[test]
    fn horizon_and_range_violations_are_typed() {
        let late = TelemetryEvent::Completion {
            device: DeviceId(0),
            at: secs(601),
        };
        assert!(matches!(
            translate(&late, &ctx(0, None)).unwrap_err(),
            OnlineError::BeyondHorizon { .. }
        ));
        let foreign = TelemetryEvent::NodeDown {
            at: secs(10),
            node: 9,
        };
        assert!(matches!(
            translate(&foreign, &ctx(0, None)).unwrap_err(),
            OnlineError::Scenario(ScenarioError::InvalidTelemetry { .. })
        ));
    }

    #[test]
    fn merge_cap_preserves_the_prefix_and_appends_the_change() {
        let base =
            PowerCapProfile::from_steps(vec![(SimTime::ZERO, 5.0), (secs(100), 3.0)]).unwrap();
        let merged = merge_cap(Some(&base), secs(200), Some(2.0)).unwrap();
        assert_eq!(merged.cap_at(secs(50)), 5.0);
        assert_eq!(merged.cap_at(secs(150)), 3.0);
        assert_eq!(merged.cap_at(secs(250)), 2.0);
        // A later change replaces steps at/after its instant.
        let merged2 = merge_cap(Some(&merged), secs(150), None).unwrap();
        assert_eq!(merged2.cap_at(secs(120)), 3.0);
        assert!(merged2.cap_at(secs(300)).is_infinite());
        // From no profile at all: unconstrained before, capped after.
        let fresh = merge_cap(None, secs(60), Some(4.0)).unwrap();
        assert!(fresh.cap_at(secs(59)).is_infinite());
        assert_eq!(fresh.cap_at(secs(60)), 4.0);
        // A change at the origin *is* the profile.
        let origin = merge_cap(None, SimTime::ZERO, Some(1.5)).unwrap();
        assert_eq!(origin.cap_at(SimTime::ZERO), 1.5);
    }

    #[test]
    fn cap_change_translates_to_a_merged_profile_injection() {
        let ev = TelemetryEvent::CapChange {
            at: secs(100),
            cap_kw: Some(3.0),
        };
        match translate(&ev, &ctx(0, None)).unwrap() {
            Action::Inject {
                round,
                injection: Injection::CapChange(Some(profile)),
            } => {
                assert_eq!(round, 50);
                assert!(profile.cap_at(secs(99)).is_infinite());
                assert_eq!(profile.cap_at(secs(100)), 3.0);
            }
            _ => panic!("expected a cap-change injection"),
        }
    }
}
