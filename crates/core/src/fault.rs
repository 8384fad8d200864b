//! Deterministic fault injection: node churn, CP outages, signal dropout.
//!
//! A [`FaultPlan`] is a validated timeline of typed [`FaultEvent`]s that a
//! simulation replays deterministically: the round loop consults the plan
//! at each round boundary, before the round opens.
//!
//! Semantics are graceful degradation, never hard failure:
//!
//! * **Node churn** (`NodeDown` / `NodeUp`): a down node stops publishing
//!   its status and stops receiving others' — but its Device Interface
//!   keeps running locally, and the local laxity guard still forces
//!   endangered obligations ON, so minDCD-per-maxDCP holds under *any*
//!   plan. Survivors keep the dead node's last records until a staleness
//!   TTL (if enabled) ages the ghosts out of their planning views.
//! * **CP outage** (`CpOutage`): a correlated blackout — for the window,
//!   *no* node publishes or receives, on top of whatever
//!   [`CpModel`](crate::cp::CpModel) is in force.
//! * **Signal dropout** (`SignalLoss`): the feeder's power-cap broadcast
//!   goes dark. Homes hold the last-known-good cap for a bounded
//!   staleness horizon, then fail *open* (unconstrained) —
//!   [`degrade_cap_profile`] computes the cap profile a home actually
//!   acts on. Obligations always beat signals, so the no-deadline-miss
//!   guarantee survives any dropout.
//!
//! Times are absolute simulation times; a fault event takes effect at the
//! first round whose start time is `>=` the event time. Windows are
//! half-open `[from, until)`.

use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::ScenarioError;
use han_workload::signal::PowerCapProfile;
use han_workload::telemetry::TelemetryEvent;

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Node `node` crashes at `at`: it stops publishing and receiving.
    NodeDown {
        /// When the node goes down.
        at: SimTime,
        /// The node (device interface) index.
        node: usize,
    },
    /// Node `node` rejoins at `at` and resumes publish/receive.
    NodeUp {
        /// When the node comes back.
        at: SimTime,
        /// The node (device interface) index.
        node: usize,
    },
    /// A correlated CP blackout over `[from, until)`: no publications and
    /// no deliveries for any node.
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

impl FaultEvent {
    /// The fault a telemetry event reports: node churn, CP blackouts and
    /// signal dropouts map one-to-one; arrivals, completions, cap and
    /// tariff changes are not faults.
    pub(crate) fn from_telemetry(event: &TelemetryEvent) -> Option<FaultEvent> {
        Some(match *event {
            TelemetryEvent::NodeDown { at, node } => FaultEvent::NodeDown { at, node },
            TelemetryEvent::NodeUp { at, node } => FaultEvent::NodeUp { at, node },
            TelemetryEvent::CpOutage { from, until } => FaultEvent::CpOutage { from, until },
            TelemetryEvent::SignalLoss { from, until } => FaultEvent::SignalLoss { from, until },
            TelemetryEvent::Arrival { .. }
            | TelemetryEvent::Completion { .. }
            | TelemetryEvent::CapChange { .. }
            | TelemetryEvent::Tariff { .. } => return None,
        })
    }

    /// The instant the event takes effect (window events: their start).
    fn effective_at(&self) -> SimTime {
        match *self {
            FaultEvent::NodeDown { at, .. } | FaultEvent::NodeUp { at, .. } => at,
            FaultEvent::CpOutage { from, .. } | FaultEvent::SignalLoss { from, .. } => from,
        }
    }
}

/// A validated, deterministic timeline of faults.
///
/// Constructed by [`FaultPlan::from_events`] (or parsed from a CLI spec
/// with [`FaultPlan::parse`]); events are kept sorted by effective time,
/// ties broken by construction order, so replaying the plan is
/// order-independent of how it was written down.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injecting it is bit-identical to no fault plane at
    /// all (proptest-pinned).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events, validating window shapes. Node indices
    /// are *not* range-checked here (the plan does not know the fleet
    /// size); [`validate_nodes`](FaultPlan::validate_nodes) does that when
    /// the plan is attached to a simulation.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Result<Self, ScenarioError> {
        for ev in &events {
            if let FaultEvent::CpOutage { from, until } | FaultEvent::SignalLoss { from, until } =
                ev
            {
                if from >= until {
                    return Err(ScenarioError::InvalidFaultPlan {
                        reason: format!(
                            "window [{}, {}) is empty (from must precede until)",
                            from.as_micros(),
                            until.as_micros()
                        ),
                    });
                }
            }
        }
        events.sort_by_key(FaultEvent::effective_at);
        Ok(FaultPlan { events })
    }

    /// Parses the CLI fault spec: the fault entries of the telemetry
    /// grammar ([`TelemetryEvent::parse_script`]) — `down:NODE@T`,
    /// `up:NODE@T`, `outage:FROM-UNTIL` and `sigloss:FROM-UNTIL`, separated
    /// by semicolons and/or newlines, `#` lines being comments, with times
    /// in whole minutes or with an `s`/`us` suffix.
    ///
    /// ```
    /// use han_core::fault::FaultPlan;
    /// let plan = FaultPlan::parse("down:2@10; up:2@25; outage:40-45").unwrap();
    /// assert_eq!(plan.events().len(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidFaultPlan`] for a malformed entry, a time
    /// past the clock's range, an empty window, or an entry of a kind that
    /// is not a fault (such as `arrive:1@2`).
    pub fn parse(spec: &str) -> Result<Self, ScenarioError> {
        let invalid = |reason| ScenarioError::InvalidFaultPlan { reason };
        let events = TelemetryEvent::parse_script(spec).map_err(|e| match e {
            ScenarioError::InvalidTelemetry { reason } => invalid(reason),
            other => invalid(other.to_string()),
        })?;
        let faults = events
            .iter()
            .map(|event| {
                FaultEvent::from_telemetry(event).ok_or_else(|| {
                    invalid(format!("'{event}' is not a fault (down/up/outage/sigloss)"))
                })
            })
            .collect::<Result<_, _>>()?;
        FaultPlan::from_events(faults)
    }

    /// Appends one event to a live plan, preserving the sorted-by-effective
    /// -time invariant (an appended event fires *after* existing events at
    /// the same instant, exactly as a stable re-sort would place it). This
    /// is the online-ingest entry point: a running daemon grows its fault
    /// timeline one injected event at a time, and because
    /// [`down_at`](FaultPlan::down_at) / [`outage_at`](FaultPlan::outage_at)
    /// are stateless scans, events appended mid-run take effect from the
    /// next round consulted.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidFaultPlan`] for an empty window, as in
    /// [`from_events`](FaultPlan::from_events). Node indices are checked
    /// separately via [`validate_nodes`](FaultPlan::validate_nodes).
    pub fn push(&mut self, event: FaultEvent) -> Result<(), ScenarioError> {
        if let FaultEvent::CpOutage { from, until } | FaultEvent::SignalLoss { from, until } =
            &event
        {
            if from >= until {
                return Err(ScenarioError::InvalidFaultPlan {
                    reason: format!(
                        "window [{}, {}) is empty (from must precede until)",
                        from.as_micros(),
                        until.as_micros()
                    ),
                });
            }
        }
        let at = event.effective_at();
        let idx = self.events.partition_point(|e| e.effective_at() <= at);
        self.events.insert(idx, event);
        Ok(())
    }

    /// The events, sorted by effective time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether the plan carries communication-plane faults (churn or
    /// outages) — the condition under which the simulation enables
    /// fault-phase processing and per-node delivery rows.
    pub fn has_cp_faults(&self) -> bool {
        self.events.iter().any(|ev| {
            matches!(
                ev,
                FaultEvent::NodeDown { .. }
                    | FaultEvent::NodeUp { .. }
                    | FaultEvent::CpOutage { .. }
            )
        })
    }

    /// Whether the plan carries feeder signal dropouts.
    pub fn has_signal_faults(&self) -> bool {
        self.events
            .iter()
            .any(|ev| matches!(ev, FaultEvent::SignalLoss { .. }))
    }

    /// Range-checks every node index against the fleet size.
    pub fn validate_nodes(&self, device_count: usize) -> Result<(), ScenarioError> {
        for ev in &self.events {
            if let FaultEvent::NodeDown { node, .. } | FaultEvent::NodeUp { node, .. } = ev {
                if *node >= device_count {
                    return Err(ScenarioError::InvalidFaultPlan {
                        reason: format!(
                            "node {node} out of range for a fleet of {device_count} devices"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Fills `down[i] = true` iff node `i` is down at `now` — a stateless
    /// scan: the latest churn event per node at or before `now` wins.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range for `down` (prevented by
    /// [`validate_nodes`](FaultPlan::validate_nodes)).
    pub fn down_at(&self, now: SimTime, down: &mut [bool]) {
        down.fill(false);
        for ev in &self.events {
            match *ev {
                FaultEvent::NodeDown { at, node } if at <= now => down[node] = true,
                FaultEvent::NodeUp { at, node } if at <= now => down[node] = false,
                _ => {}
            }
        }
    }

    /// Whether a CP outage window covers `now` (`from <= now < until`).
    pub fn outage_at(&self, now: SimTime) -> bool {
        self.events.iter().any(
            |ev| matches!(ev, FaultEvent::CpOutage { from, until } if *from <= now && now < *until),
        )
    }

    /// The signal-dropout windows, sorted by start (unmerged — overlaps
    /// are handled by [`degrade_cap_profile`]).
    pub fn signal_loss_windows(&self) -> Vec<(SimTime, SimTime)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::SignalLoss { from, until } => Some((from, until)),
                _ => None,
            })
            .collect()
    }
}

/// The cap profile a home actually acts on when the feeder broadcast is
/// lost over `windows`: inside each dropout the home *holds* the
/// last-known-good cap (the cap in force just before the window opened)
/// for at most `horizon`, then fails **open** (unconstrained) until the
/// broadcast resumes. A dropout from time zero has no known-good value
/// and is open from the start. The original profile resumes exactly at
/// each window's end.
///
/// Degrading an [unlimited](PowerCapProfile::unlimited) profile yields an
/// unlimited profile again — the signal path stays bit-identical when no
/// cap was in force.
pub fn degrade_cap_profile(
    profile: &PowerCapProfile,
    windows: &[(SimTime, SimTime)],
    horizon: SimDuration,
) -> PowerCapProfile {
    // Merge overlapping/adjacent dropouts into disjoint windows.
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    let mut sorted = windows.to_vec();
    sorted.sort();
    for (from, until) in sorted {
        match merged.last_mut() {
            Some((_, end)) if from <= *end => *end = (*end).max(until),
            _ => merged.push((from, until)),
        }
    }

    // Effective cap at one instant under the degradation rule.
    let cap_at = |t: SimTime| -> f64 {
        for &(from, until) in &merged {
            if from <= t && t < until {
                let hold_until = from + horizon;
                if t < hold_until && from > SimTime::ZERO {
                    // Hold the last value heard before the dropout.
                    return profile.cap_at(SimTime::from_micros(from.as_micros() - 1));
                }
                return f64::INFINITY;
            }
        }
        profile.cap_at(t)
    };

    // Breakpoints where the effective cap can change: the original steps,
    // each window's start, hold-expiry and end.
    let mut breakpoints: Vec<SimTime> = vec![SimTime::ZERO];
    breakpoints.extend(profile.steps().iter().map(|&(at, _)| at));
    for &(from, until) in &merged {
        breakpoints.push(from);
        let hold_until = from + horizon;
        if hold_until < until {
            breakpoints.push(hold_until);
        }
        breakpoints.push(until);
    }
    breakpoints.sort();
    breakpoints.dedup();

    // Sample and merge equal runs so the degraded profile is minimal (an
    // untouched profile round-trips to itself).
    let mut steps: Vec<(SimTime, f64)> = Vec::new();
    for t in breakpoints {
        let kw = cap_at(t);
        if steps.last().map(|&(_, last)| last != kw).unwrap_or(true) {
            steps.push((t, kw));
        }
    }
    PowerCapProfile::from_steps(steps).expect("degraded profile is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert!(!plan.has_cp_faults());
        assert!(!plan.has_signal_faults());
        assert!(!plan.outage_at(t(0)));
        let mut down = vec![true, true];
        plan.down_at(t(100), &mut down);
        assert_eq!(down, vec![false, false]);
        assert!(plan.validate_nodes(0).is_ok());
    }

    #[test]
    fn churn_timeline_latest_event_wins() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent::NodeUp { at: t(20), node: 1 },
            FaultEvent::NodeDown { at: t(5), node: 1 },
            FaultEvent::NodeDown { at: t(30), node: 0 },
        ])
        .unwrap();
        let mut down = vec![false; 2];
        plan.down_at(t(0), &mut down);
        assert_eq!(down, vec![false, false]);
        plan.down_at(t(5), &mut down);
        assert_eq!(down, vec![false, true], "down takes effect at its instant");
        plan.down_at(t(19), &mut down);
        assert_eq!(down, vec![false, true]);
        plan.down_at(t(20), &mut down);
        assert_eq!(down, vec![false, false], "up takes effect at its instant");
        plan.down_at(t(40), &mut down);
        assert_eq!(down, vec![true, false]);
    }

    #[test]
    fn outage_windows_are_half_open() {
        let plan = FaultPlan::from_events(vec![FaultEvent::CpOutage {
            from: t(10),
            until: t(20),
        }])
        .unwrap();
        assert!(!plan.outage_at(t(9)));
        assert!(plan.outage_at(t(10)));
        assert!(plan.outage_at(t(19)));
        assert!(!plan.outage_at(t(20)));
        assert!(plan.has_cp_faults());
    }

    #[test]
    fn empty_windows_rejected() {
        let err = FaultPlan::from_events(vec![FaultEvent::SignalLoss {
            from: t(10),
            until: t(10),
        }])
        .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidFaultPlan { .. }));
    }

    #[test]
    fn node_bounds_checked_against_fleet() {
        let plan =
            FaultPlan::from_events(vec![FaultEvent::NodeDown { at: t(1), node: 4 }]).unwrap();
        assert!(plan.validate_nodes(5).is_ok());
        let err = plan.validate_nodes(4).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidFaultPlan { .. }));
    }

    #[test]
    fn parse_round_trips_the_event_kinds() {
        let plan = FaultPlan::parse(" down:2@10 ; up:2@25; outage:40-45 ; sigloss:50-70 ").unwrap();
        assert_eq!(
            plan.events(),
            &[
                FaultEvent::NodeDown { at: t(10), node: 2 },
                FaultEvent::NodeUp { at: t(25), node: 2 },
                FaultEvent::CpOutage {
                    from: t(40),
                    until: t(45)
                },
                FaultEvent::SignalLoss {
                    from: t(50),
                    until: t(70)
                },
            ]
        );
        assert!(plan.has_signal_faults());
        assert_eq!(plan.signal_loss_windows(), vec![(t(50), t(70))]);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "explode:1@2",
            "down:1",
            "down:x@2",
            "outage:5",
            "outage:9-9",
            "nonsense",
        ] {
            assert!(
                matches!(
                    FaultPlan::parse(bad),
                    Err(ScenarioError::InvalidFaultPlan { .. })
                ),
                "spec '{bad}' must be rejected"
            );
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_reads_the_fault_entries_of_the_telemetry_grammar() {
        let secs = SimTime::from_secs;
        for (entry, expected) in [
            ("down:3@10", FaultEvent::NodeDown { at: t(10), node: 3 }),
            (
                "down:3@90s",
                FaultEvent::NodeDown {
                    at: secs(90),
                    node: 3,
                },
            ),
            (
                "up:3@5400000001us",
                FaultEvent::NodeUp {
                    at: SimTime::from_micros(5_400_000_001),
                    node: 3,
                },
            ),
            (
                "outage:30s-2",
                FaultEvent::CpOutage {
                    from: secs(30),
                    until: t(2),
                },
            ),
            (
                "sigloss:80-90",
                FaultEvent::SignalLoss {
                    from: t(80),
                    until: t(90),
                },
            ),
        ] {
            let telemetry = TelemetryEvent::parse(entry).unwrap();
            assert_eq!(
                FaultEvent::from_telemetry(&telemetry),
                Some(expected),
                "{entry}"
            );
            assert_eq!(
                FaultPlan::parse(entry).unwrap().events(),
                &[expected],
                "{entry}"
            );
        }
        // Newlines and `#` comment lines separate entries, as in a script.
        let plan = FaultPlan::parse("# churn\ndown:3@10\nup:3@20; outage:30s-2").unwrap();
        assert_eq!(plan.events().len(), 3);
        // A telemetry kind that is no fault, and a minute count past the
        // microsecond clock, are both typed errors.
        for bad in ["arrive:1@2", "down:3@307445734562"] {
            assert!(
                matches!(
                    FaultPlan::parse(bad),
                    Err(ScenarioError::InvalidFaultPlan { .. })
                ),
                "spec '{bad}' must be rejected"
            );
        }
    }

    #[test]
    fn push_keeps_the_plan_sorted_and_stable() {
        let mut plan = FaultPlan::parse("down:1@10; up:1@30").unwrap();
        plan.push(FaultEvent::NodeDown { at: t(20), node: 0 })
            .unwrap();
        // Tie at minute 10: the appended event lands after the existing one,
        // as a stable re-sort of [existing.., appended] would place it.
        plan.push(FaultEvent::NodeUp { at: t(10), node: 0 })
            .unwrap();
        assert_eq!(
            plan.events(),
            &[
                FaultEvent::NodeDown { at: t(10), node: 1 },
                FaultEvent::NodeUp { at: t(10), node: 0 },
                FaultEvent::NodeDown { at: t(20), node: 0 },
                FaultEvent::NodeUp { at: t(30), node: 1 },
            ]
        );
        let err = plan
            .push(FaultEvent::CpOutage {
                from: t(5),
                until: t(5),
            })
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidFaultPlan { .. }));
        assert_eq!(plan.events().len(), 4, "rejected events are not inserted");
    }

    #[test]
    fn events_sorted_by_effective_time() {
        let plan = FaultPlan::parse("up:0@30; outage:5-10; down:0@2").unwrap();
        let times: Vec<u64> = plan
            .events()
            .iter()
            .map(|e| e.effective_at().as_micros())
            .collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn degrade_unlimited_is_identity() {
        let unlimited = PowerCapProfile::unlimited();
        let degraded =
            degrade_cap_profile(&unlimited, &[(t(10), t(30))], SimDuration::from_mins(5));
        assert_eq!(degraded.steps(), unlimited.steps());
    }

    #[test]
    fn degrade_holds_then_fails_open_then_resumes() {
        // Cap: 4 kW until minute 20, then 2 kW. Dropout [15, 40), hold 10.
        let profile = PowerCapProfile::from_steps(vec![(t(0), 4.0), (t(20), 2.0)]).unwrap();
        let degraded = degrade_cap_profile(&profile, &[(t(15), t(40))], SimDuration::from_mins(10));
        assert_eq!(degraded.cap_at(t(14)), 4.0, "before the dropout");
        assert_eq!(degraded.cap_at(t(15)), 4.0, "holds last-known-good");
        assert_eq!(
            degraded.cap_at(t(24)),
            4.0,
            "still holding — the minute-20 step was never heard"
        );
        assert_eq!(degraded.cap_at(t(25)), f64::INFINITY, "hold expired: open");
        assert_eq!(degraded.cap_at(t(39)), f64::INFINITY);
        assert_eq!(degraded.cap_at(t(40)), 2.0, "broadcast resumes");
    }

    #[test]
    fn degrade_from_time_zero_has_no_known_good() {
        let profile = PowerCapProfile::constant(3.0).unwrap();
        let degraded = degrade_cap_profile(&profile, &[(t(0), t(10))], SimDuration::from_mins(60));
        assert_eq!(degraded.cap_at(t(0)), f64::INFINITY);
        assert_eq!(degraded.cap_at(t(9)), f64::INFINITY);
        assert_eq!(degraded.cap_at(t(10)), 3.0);
    }

    #[test]
    fn degrade_merges_overlapping_windows() {
        let profile = PowerCapProfile::constant(3.0).unwrap();
        // Two overlapping dropouts act as one [5, 25) window; hold of 5
        // minutes is measured from the merged start.
        let degraded = degrade_cap_profile(
            &profile,
            &[(t(12), t(25)), (t(5), t(15))],
            SimDuration::from_mins(5),
        );
        assert_eq!(degraded.cap_at(t(7)), 3.0, "holding from minute 5");
        assert_eq!(degraded.cap_at(t(11)), f64::INFINITY, "hold expired at 10");
        assert_eq!(degraded.cap_at(t(24)), f64::INFINITY);
        assert_eq!(degraded.cap_at(t(25)), 3.0);
    }
}
