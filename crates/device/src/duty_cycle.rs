//! Duty-cycle constraints and per-device duty-cycle accounting.
//!
//! The paper constrains every Type-2 appliance with two parameters:
//!
//! * **minDCD** (*min-Duty-Cycle-Duration*) — once the power-hungry element
//!   switches ON it must stay ON at least this long (one *instance*);
//! * **maxDCP** (*max-Duty-Cycle-Period*) — while a device is *active*,
//!   every consecutive window of this length must contain at least one full
//!   minDCD of ON time.
//!
//! [`DutyCycler`] is the bookkeeping state machine each Device Interface
//! runs: it tracks activity windows, accumulated ON time, instance lengths,
//! deadlines and *laxity* — the slack before the device must be forced ON to
//! still meet its obligation. The scheduler in `han-core` is built entirely
//! on these queries.

use han_sim::time::{SimDuration, SimTime};
use std::fmt;

/// Validated duty-cycle constraint pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DutyCycleConstraints {
    min_dcd: SimDuration,
    max_dcp: SimDuration,
}

/// Errors constructing [`DutyCycleConstraints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintError {
    /// minDCD was zero.
    ZeroMinDcd,
    /// maxDCP was shorter than minDCD, making the obligation unsatisfiable.
    PeriodShorterThanDuration {
        /// The offending minDCD.
        min_dcd: SimDuration,
        /// The offending maxDCP.
        max_dcp: SimDuration,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::ZeroMinDcd => write!(f, "minDCD must be positive"),
            ConstraintError::PeriodShorterThanDuration { min_dcd, max_dcp } => {
                write!(f, "maxDCP {max_dcp} is shorter than minDCD {min_dcd}")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}

impl DutyCycleConstraints {
    /// Creates a constraint pair.
    ///
    /// # Errors
    ///
    /// Returns [`ConstraintError`] if `min_dcd` is zero or exceeds
    /// `max_dcp`.
    pub fn new(min_dcd: SimDuration, max_dcp: SimDuration) -> Result<Self, ConstraintError> {
        if min_dcd.is_zero() {
            return Err(ConstraintError::ZeroMinDcd);
        }
        if max_dcp < min_dcd {
            return Err(ConstraintError::PeriodShorterThanDuration { min_dcd, max_dcp });
        }
        Ok(DutyCycleConstraints { min_dcd, max_dcp })
    }

    /// The paper's evaluation parameters: minDCD 15 min, maxDCP 30 min.
    pub fn paper() -> Self {
        DutyCycleConstraints::new(SimDuration::from_mins(15), SimDuration::from_mins(30))
            .expect("paper constants are valid")
    }

    /// The minimum ON-instance duration.
    pub(crate) fn min_dcd(&self) -> SimDuration {
        self.min_dcd
    }

    /// The maximum duty-cycle period.
    pub fn max_dcp(&self) -> SimDuration {
        self.max_dcp
    }
}

/// Result of advancing a [`DutyCycler`] across window boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdvanceOutcome {
    /// Windows that closed during the advance.
    pub windows_closed: u32,
    /// Closed windows whose minDCD obligation was not met.
    pub deadline_misses: u32,
    /// Whether the device deactivated (last window closed).
    pub deactivated: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    Inactive,
    Active {
        window_start: SimTime,
        windows_remaining: u32,
        /// ON time completed in the current window, excluding the running
        /// segment.
        served_in_window: SimDuration,
        /// Start of the running segment's contribution to the current
        /// window (normalized to ≥ `window_start`).
        on_since: Option<SimTime>,
        /// Physical start of the running ON instance (never normalized).
        instance_start: Option<SimTime>,
        arrival: SimTime,
    },
}

/// A plain-data snapshot of a [`DutyCycler`]'s activity state, for
/// checkpoint/restore of a running simulation. `None` means the cycler is
/// inactive; the field names mirror the internal bookkeeping exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DutyCyclerSnapshot {
    /// The active-state fields, or `None` while inactive.
    pub active: Option<ActiveSnapshot>,
}

/// The bookkeeping of one active window, part of a
/// [`DutyCyclerSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSnapshot {
    /// Start of the current maxDCP window.
    pub window_start: SimTime,
    /// Activity windows still owed, including the current one.
    pub windows_remaining: u32,
    /// ON time completed in the current window, excluding the running
    /// segment.
    pub served_in_window: SimDuration,
    /// Start of the running segment's contribution to the current window.
    pub on_since: Option<SimTime>,
    /// Physical start of the running ON instance.
    pub instance_start: Option<SimTime>,
    /// Arrival time of the activating request.
    pub arrival: SimTime,
}

/// Error returned when a command would violate the minDCD constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MinDcdViolation {
    /// How long the running instance has been ON.
    pub instance_elapsed: SimDuration,
    /// The required minimum.
    pub required: SimDuration,
}

impl fmt::Display for MinDcdViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance has run {} of the required {}",
            self.instance_elapsed, self.required
        )
    }
}

impl std::error::Error for MinDcdViolation {}

/// Duty-cycle bookkeeping for one Type-2 device.
#[derive(Debug, Clone, PartialEq)]
pub struct DutyCycler {
    constraints: DutyCycleConstraints,
    state: State,
}

impl DutyCycler {
    /// Creates an inactive cycler.
    pub(crate) fn new(constraints: DutyCycleConstraints) -> Self {
        DutyCycler {
            constraints,
            state: State::Inactive,
        }
    }

    /// The constraints in force.
    pub fn constraints(&self) -> &DutyCycleConstraints {
        &self.constraints
    }

    /// Whether a user request is being served.
    pub fn is_active(&self) -> bool {
        matches!(self.state, State::Active { .. })
    }

    /// Whether the power element is currently ON.
    pub fn is_on(&self) -> bool {
        matches!(
            self.state,
            State::Active {
                on_since: Some(_),
                ..
            }
        )
    }

    /// Arrival time of the activating request, while active.
    pub(crate) fn arrival(&self) -> Option<SimTime> {
        match self.state {
            State::Active { arrival, .. } => Some(arrival),
            State::Inactive => None,
        }
    }

    /// Activity windows still owed, including the current one.
    pub(crate) fn windows_remaining(&self) -> u32 {
        match self.state {
            State::Active {
                windows_remaining, ..
            } => windows_remaining,
            State::Inactive => 0,
        }
    }

    /// Activates the device for `windows` maxDCP windows starting at `now`,
    /// or extends the obligation if already active.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero.
    pub(crate) fn activate(&mut self, now: SimTime, windows: u32) {
        assert!(windows > 0, "activation must request at least one window");
        match &mut self.state {
            State::Inactive => {
                self.state = State::Active {
                    window_start: now,
                    windows_remaining: windows,
                    served_in_window: SimDuration::ZERO,
                    on_since: None,
                    instance_start: None,
                    arrival: now,
                };
            }
            State::Active {
                windows_remaining, ..
            } => {
                *windows_remaining += windows;
            }
        }
    }

    /// Advances bookkeeping to `now`, closing any expired windows.
    ///
    /// Must be called with non-decreasing `now`. Returns what happened; the
    /// Device Interface turns the appliance OFF physically when
    /// `deactivated` is reported.
    pub(crate) fn advance(&mut self, now: SimTime) -> AdvanceOutcome {
        let mut outcome = AdvanceOutcome::default();
        loop {
            let State::Active {
                window_start,
                windows_remaining,
                served_in_window,
                on_since,
                instance_start,
                arrival,
            } = self.state.clone()
            else {
                return outcome;
            };
            let window_end = window_start + self.constraints.max_dcp;
            if now < window_end {
                return outcome;
            }
            // Close this window.
            let mut served = served_in_window;
            if let Some(s) = on_since {
                served += window_end - s;
            }
            outcome.windows_closed += 1;
            if served < self.constraints.min_dcd {
                outcome.deadline_misses += 1;
            }
            if windows_remaining <= 1 {
                outcome.deactivated = true;
                self.state = State::Inactive;
                return outcome;
            }
            self.state = State::Active {
                window_start: window_end,
                windows_remaining: windows_remaining - 1,
                served_in_window: SimDuration::ZERO,
                // A running segment continues into the new window.
                on_since: on_since.map(|_| window_end),
                instance_start,
                arrival,
            };
        }
    }

    /// Switches the element ON. No-op if already ON.
    ///
    /// # Panics
    ///
    /// Panics if the device is inactive — the schedule must never switch ON
    /// a device nobody asked for.
    pub(crate) fn set_on(&mut self, now: SimTime) {
        match &mut self.state {
            State::Inactive => panic!("cannot switch ON an inactive device"),
            State::Active {
                on_since,
                instance_start,
                ..
            } => {
                if on_since.is_none() {
                    *on_since = Some(now);
                    *instance_start = Some(now);
                }
            }
        }
    }

    /// Switches the element OFF, enforcing the minDCD instance constraint.
    ///
    /// No-op if already OFF.
    ///
    /// # Errors
    ///
    /// Returns [`MinDcdViolation`] (leaving the device ON) if the running
    /// instance has not yet lasted minDCD.
    pub(crate) fn set_off(&mut self, now: SimTime) -> Result<(), MinDcdViolation> {
        let State::Active {
            on_since,
            instance_start,
            served_in_window,
            ..
        } = &mut self.state
        else {
            return Ok(());
        };
        let (Some(since), Some(instance)) = (*on_since, *instance_start) else {
            return Ok(());
        };
        let instance_elapsed = now.saturating_since(instance);
        if instance_elapsed < self.constraints.min_dcd {
            return Err(MinDcdViolation {
                instance_elapsed,
                required: self.constraints.min_dcd,
            });
        }
        *served_in_window += now.saturating_since(since);
        *on_since = None;
        *instance_start = None;
        Ok(())
    }

    /// Captures the activity state as plain data (constraints excluded —
    /// they come from the fleet spec on reconstruction).
    pub(crate) fn snapshot(&self) -> DutyCyclerSnapshot {
        DutyCyclerSnapshot {
            active: match &self.state {
                State::Inactive => None,
                State::Active {
                    window_start,
                    windows_remaining,
                    served_in_window,
                    on_since,
                    instance_start,
                    arrival,
                } => Some(ActiveSnapshot {
                    window_start: *window_start,
                    windows_remaining: *windows_remaining,
                    served_in_window: *served_in_window,
                    on_since: *on_since,
                    instance_start: *instance_start,
                    arrival: *arrival,
                }),
            },
        }
    }

    /// Restores the activity state from a [`DutyCycler::snapshot`].
    pub(crate) fn restore(&mut self, snapshot: &DutyCyclerSnapshot) {
        self.state = match &snapshot.active {
            None => State::Inactive,
            Some(a) => State::Active {
                window_start: a.window_start,
                windows_remaining: a.windows_remaining,
                served_in_window: a.served_in_window,
                on_since: a.on_since,
                instance_start: a.instance_start,
                arrival: a.arrival,
            },
        };
    }

    /// ON time credited to the current window as of `now`.
    pub(crate) fn served_in_window(&self, now: SimTime) -> SimDuration {
        match &self.state {
            State::Inactive => SimDuration::ZERO,
            State::Active {
                served_in_window,
                on_since,
                ..
            } => {
                let mut served = *served_in_window;
                if let Some(s) = on_since {
                    served += now.saturating_since(*s);
                }
                served
            }
        }
    }

    /// ON time still owed in the current window (zero once minDCD is met).
    pub fn owed(&self, now: SimTime) -> SimDuration {
        if !self.is_active() {
            return SimDuration::ZERO;
        }
        self.constraints
            .min_dcd
            .saturating_sub(self.served_in_window(now))
    }

    /// Deadline of the current window, while active.
    pub(crate) fn window_deadline(&self) -> Option<SimTime> {
        match self.state {
            State::Active { window_start, .. } => Some(window_start + self.constraints.max_dcp),
            State::Inactive => None,
        }
    }

    /// Signed slack in microseconds before the device *must* be ON to still
    /// meet its window obligation: `(deadline − now) − owed`.
    ///
    /// Negative laxity means the obligation can no longer be fully met.
    /// Returns `None` while inactive or once the obligation is met.
    pub fn laxity_micros(&self, now: SimTime) -> Option<i64> {
        let deadline = self.window_deadline()?;
        let owed = self.owed(now);
        if owed.is_zero() {
            return None;
        }
        let slack = deadline.as_micros() as i64 - now.as_micros() as i64;
        Some(slack - owed.as_micros() as i64)
    }

    /// Whether the running instance has lasted at least minDCD (and may be
    /// switched OFF without violation).
    pub fn instance_complete(&self, now: SimTime) -> bool {
        match &self.state {
            State::Active {
                instance_start: Some(instance),
                ..
            } => now.saturating_since(*instance) >= self.constraints.min_dcd,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: SimDuration = SimDuration::from_mins(15);
    const MAX: SimDuration = SimDuration::from_mins(30);

    fn paper_cycler() -> DutyCycler {
        DutyCycler::new(DutyCycleConstraints::paper())
    }

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn constraints_validation() {
        assert!(DutyCycleConstraints::new(MIN, MAX).is_ok());
        assert_eq!(
            DutyCycleConstraints::new(SimDuration::ZERO, MAX),
            Err(ConstraintError::ZeroMinDcd)
        );
        assert!(matches!(
            DutyCycleConstraints::new(MAX, MIN),
            Err(ConstraintError::PeriodShorterThanDuration { .. })
        ));
    }

    #[test]
    fn lifecycle_single_window() {
        let mut d = paper_cycler();
        assert!(!d.is_active());
        d.activate(t(0), 1);
        assert!(d.is_active() && !d.is_on());
        assert_eq!(d.owed(t(0)), MIN);
        assert_eq!(d.window_deadline(), Some(t(30)));

        d.set_on(t(5));
        assert!(d.is_on());
        assert_eq!(d.served_in_window(t(12)), SimDuration::from_mins(7));
        assert_eq!(d.owed(t(12)), SimDuration::from_mins(8));

        // minDCD complete at t=20.
        assert!(!d.instance_complete(t(19)));
        assert!(d.instance_complete(t(20)));
        d.set_off(t(20)).expect("instance complete");
        assert!(!d.is_on());
        assert_eq!(d.owed(t(20)), SimDuration::ZERO);

        // Window closes at t=30 with obligation met; device deactivates.
        let out = d.advance(t(31));
        assert_eq!(out.windows_closed, 1);
        assert_eq!(out.deadline_misses, 0);
        assert!(out.deactivated);
        assert!(!d.is_active());
    }

    #[test]
    fn early_off_rejected() {
        let mut d = paper_cycler();
        d.activate(t(0), 1);
        d.set_on(t(0));
        let err = d.set_off(t(10)).unwrap_err();
        assert_eq!(err.instance_elapsed, SimDuration::from_mins(10));
        assert_eq!(err.required, MIN);
        assert!(d.is_on(), "device must remain ON after rejected OFF");
        assert!(err.to_string().contains("required"));
    }

    #[test]
    fn deadline_miss_counted() {
        let mut d = paper_cycler();
        d.activate(t(0), 1);
        // Never switched ON: the window closes unmet.
        let out = d.advance(t(30));
        assert_eq!(out.deadline_misses, 1);
        assert!(out.deactivated);
    }

    #[test]
    fn multi_window_rollover() {
        let mut d = paper_cycler();
        d.activate(t(0), 2);
        d.set_on(t(0));
        d.set_off(t(15)).unwrap();
        let out = d.advance(t(30));
        assert_eq!(out.windows_closed, 1);
        assert_eq!(out.deadline_misses, 0);
        assert!(!out.deactivated);
        assert_eq!(d.windows_remaining(), 1);
        // New window: obligation resets.
        assert_eq!(d.owed(t(30)), MIN);
        assert_eq!(d.window_deadline(), Some(t(60)));
    }

    #[test]
    fn on_segment_crossing_window_boundary_splits() {
        let mut d = paper_cycler();
        d.activate(t(0), 2);
        // ON from t=20; window closes at t=30 with only 10 min served (miss),
        // but the running segment credits the next window from t=30.
        d.set_on(t(20));
        let out = d.advance(t(35));
        assert_eq!(out.windows_closed, 1);
        assert_eq!(out.deadline_misses, 1);
        assert!(d.is_on());
        assert_eq!(d.served_in_window(t(35)), SimDuration::from_mins(5));
        // Instance length is continuous: 20 minutes by t=40.
        assert!(d.instance_complete(t(40)));
    }

    #[test]
    fn laxity_math() {
        let mut d = paper_cycler();
        d.activate(t(0), 1);
        // At t=0: slack 30, owed 15 => laxity +15 min.
        assert_eq!(d.laxity_micros(t(0)), Some(15 * 60 * 1_000_000));
        // At t=15: laxity 0 => must run.
        assert_eq!(d.laxity_micros(t(15)), Some(0));
        // Past the point of feasibility: negative.
        assert!(d.laxity_micros(t(20)).unwrap() < 0);
        // Once met, no laxity is reported.
        d.set_on(t(0));
        d.set_off(t(15)).unwrap();
        assert_eq!(d.laxity_micros(t(16)), None);
    }

    #[test]
    fn activation_extends_existing() {
        let mut d = paper_cycler();
        d.activate(t(0), 1);
        d.activate(t(5), 2);
        assert_eq!(d.windows_remaining(), 3);
        assert_eq!(d.arrival(), Some(t(0)), "original arrival kept");
    }

    #[test]
    #[should_panic(expected = "inactive device")]
    fn on_while_inactive_panics() {
        let mut d = paper_cycler();
        d.set_on(t(0));
    }

    #[test]
    fn off_while_inactive_or_off_is_noop() {
        let mut d = paper_cycler();
        assert!(d.set_off(t(0)).is_ok());
        d.activate(t(0), 1);
        assert!(d.set_off(t(1)).is_ok());
    }

    #[test]
    fn snapshot_round_trips_mid_window() {
        let mut d = paper_cycler();
        d.activate(t(0), 2);
        d.set_on(t(5));
        d.advance(t(31)); // roll into window 2 with the segment running
        let snap = d.snapshot();
        let mut restored = paper_cycler();
        restored.restore(&snap);
        assert_eq!(restored, d);
        // The restored cycler continues identically.
        assert_eq!(restored.owed(t(40)), d.owed(t(40)));
        assert_eq!(restored.laxity_micros(t(40)), d.laxity_micros(t(40)));
        // An inactive snapshot round-trips too.
        let idle = paper_cycler();
        let mut was_active = paper_cycler();
        was_active.activate(t(0), 1);
        was_active.restore(&idle.snapshot());
        assert!(!was_active.is_active());
    }

    #[test]
    fn advance_multiple_windows_at_once() {
        let mut d = paper_cycler();
        d.activate(t(0), 3);
        // Jump 95 minutes: all three windows close (all missed).
        let out = d.advance(t(95));
        assert_eq!(out.windows_closed, 3);
        assert_eq!(out.deadline_misses, 3);
        assert!(out.deactivated);
    }

    #[test]
    fn served_caps_at_window() {
        let mut d = paper_cycler();
        d.activate(t(0), 1);
        d.set_on(t(0));
        // Still on at t=25: served 25 min, owed 0.
        assert_eq!(d.served_in_window(t(25)), SimDuration::from_mins(25));
        assert_eq!(d.owed(t(25)), SimDuration::ZERO);
    }
}
