//! The Device Interface (DI).
//!
//! The paper assumes every appliance connects to the mains through a
//! Device Interface: a smart plug carrying an 802.15.4 radio that (i)
//! accepts user requests, (ii) publishes the device's status into the
//! communication plane, and (iii) actuates the appliance's power element
//! according to the schedule, *refusing* commands that would violate the
//! minDCD safety constraint even if a (stale or diverged) schedule asks for
//! them.

use crate::appliance::{Appliance, DeviceClass, DeviceId};
use crate::duty_cycle::{AdvanceOutcome, DutyCycleConstraints, DutyCycler, DutyCyclerSnapshot};
use crate::power::Watts;
use crate::request::Request;
use crate::status::StatusRecord;
use han_sim::time::SimTime;
use std::fmt;

/// Errors applying a request to a Device Interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The request targets a different device.
    WrongDevice {
        /// This DI's device.
        this: DeviceId,
        /// The request's target.
        requested: DeviceId,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::WrongDevice { this, requested } => {
                write!(f, "request for {requested} delivered to {this}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Counters of constraint events observed by a DI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiCounters {
    /// Windows that closed without their minDCD obligation met.
    pub deadline_misses: u32,
    /// Schedule commands refused because they would cut an instance short.
    pub refused_early_off: u32,
    /// Windows served to completion.
    pub windows_served: u32,
}

/// A Device Interface: one appliance plus its duty-cycle bookkeeping.
#[derive(Debug, Clone)]
pub struct DeviceInterface {
    appliance: Appliance,
    cycler: DutyCycler,
    counters: DiCounters,
    seq: u32,
    /// The start instant this device has committed its current-window
    /// minDCD instance to, chosen by the placement algorithm and published
    /// in the status record. Cleared on window rollover and deactivation.
    planned_start: Option<SimTime>,
    /// The last record handed to the communication plane, for change
    /// detection in [`DeviceInterface::publish`].
    last_published: Option<StatusRecord>,
}

impl DeviceInterface {
    /// Creates a DI for a schedulable (Type-2) appliance.
    ///
    /// # Panics
    ///
    /// Panics if the appliance is Type-1 — instant appliances do not carry
    /// duty-cycle state (model their load directly instead).
    pub fn new(appliance: Appliance, constraints: DutyCycleConstraints) -> Self {
        assert_eq!(
            appliance.class(),
            DeviceClass::Schedulable,
            "DeviceInterface requires a Type-2 appliance"
        );
        DeviceInterface {
            appliance,
            cycler: DutyCycler::new(constraints),
            counters: DiCounters::default(),
            seq: 0,
            planned_start: None,
            last_published: None,
        }
    }

    /// The device id.
    pub(crate) fn id(&self) -> DeviceId {
        self.appliance.id()
    }

    /// The duty-cycle bookkeeping (read access for schedulers).
    pub fn cycler(&self) -> &DutyCycler {
        &self.cycler
    }

    /// Constraint-event counters.
    pub fn counters(&self) -> DiCounters {
        self.counters
    }

    /// Whether the power element is ON.
    pub fn is_on(&self) -> bool {
        self.cycler.is_on()
    }

    /// Whether a request is being served.
    pub fn is_active(&self) -> bool {
        self.cycler.is_active()
    }

    /// Instantaneous power draw.
    pub fn power(&self) -> Watts {
        if self.is_on() {
            self.appliance.rated_power()
        } else {
            Watts::ZERO
        }
    }

    /// Accepts a user request, activating (or extending) the device.
    ///
    /// # Errors
    ///
    /// Returns [`RequestError::WrongDevice`] if the request targets another
    /// device.
    pub fn handle_request(&mut self, now: SimTime, request: &Request) -> Result<(), RequestError> {
        if request.device != self.id() {
            return Err(RequestError::WrongDevice {
                this: self.id(),
                requested: request.device,
            });
        }
        self.cycler.activate(now, request.windows);
        self.seq += 1;
        Ok(())
    }

    /// Advances duty-cycle bookkeeping to `now`, closing expired windows.
    ///
    /// A window rollover (or deactivation) invalidates the committed
    /// placement — the next planning round places the new window's
    /// instance afresh.
    pub fn advance(&mut self, now: SimTime) -> AdvanceOutcome {
        let outcome = self.cycler.advance(now);
        self.counters.deadline_misses += outcome.deadline_misses;
        self.counters.windows_served += outcome.windows_closed - outcome.deadline_misses;
        if outcome.windows_closed > 0 {
            self.planned_start = None;
            self.seq += 1;
        }
        outcome
    }

    /// The committed instance start for the current window, if placed.
    pub fn planned_start(&self) -> Option<SimTime> {
        self.planned_start
    }

    /// Commits (or clears) the placement of this window's instance.
    ///
    /// Committing bumps the status version so the placement disseminates.
    pub fn set_planned_start(&mut self, start: Option<SimTime>) {
        if self.planned_start != start {
            self.planned_start = start;
            self.seq += 1;
        }
    }

    /// Applies a schedule decision: element ON or OFF.
    ///
    /// An OFF command that would cut a running minDCD instance short is
    /// **refused** (the element stays ON) and counted — this is the DI's
    /// safety interlock against diverged or stale schedules. Returns the
    /// element state after the command.
    pub fn command(&mut self, now: SimTime, on: bool) -> bool {
        if on {
            if self.is_active() && !self.is_on() {
                self.cycler.set_on(now);
                self.seq += 1;
            }
        } else if self.is_on() {
            match self.cycler.set_off(now) {
                Ok(()) => self.seq += 1,
                Err(_violation) => {
                    self.counters.refused_early_off += 1;
                }
            }
        }
        self.is_on()
    }

    /// Builds the status record to publish this round.
    ///
    /// The sequence number increments on every state change, so stale
    /// records never overwrite fresh ones in the item stores.
    pub(crate) fn status(&self, now: SimTime) -> StatusRecord {
        StatusRecord {
            device: self.id(),
            active: self.is_active(),
            on: self.is_on(),
            owed: self.cycler.owed(now),
            deadline: self.cycler.window_deadline(),
            windows_remaining: self.cycler.windows_remaining(),
            arrival: self.cycler.arrival(),
            planned_start: self.planned_start,
            power_w: u16::try_from(self.appliance.rated_power().value().round() as i64)
                .unwrap_or(u16::MAX),
            min_dcd: self.cycler.constraints().min_dcd(),
            max_dcp: self.cycler.constraints().max_dcp(),
        }
    }

    /// Builds and versions the record to hand to the communication plane.
    ///
    /// The version (`seq`) increments exactly when the record content
    /// changed since the previous publication, so receivers' freshest-wins
    /// merge ([`han-st`'s item stores]) accepts every real update — e.g.
    /// the continuously shrinking `owed` of a running device — while
    /// identical republications stay cheap.
    ///
    /// [`han-st`'s item stores]: StatusRecord
    pub fn publish(&mut self, now: SimTime) -> StatusRecord {
        let rec = self.status(now);
        if self.last_published.as_ref() != Some(&rec) {
            self.seq += 1;
        }
        self.last_published = Some(rec);
        rec
    }

    /// The current status version (monotone).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Captures the DI's mutable state as plain data, for
    /// checkpoint/restore of a running simulation. The appliance itself is
    /// excluded — it is rebuilt from the fleet spec on reconstruction.
    pub fn snapshot(&self) -> DeviceInterfaceSnapshot {
        DeviceInterfaceSnapshot {
            cycler: self.cycler.snapshot(),
            counters: self.counters,
            seq: self.seq,
            planned_start: self.planned_start,
            last_published: self.last_published,
        }
    }

    /// Restores the state captured by [`DeviceInterface::snapshot`] onto a
    /// freshly built DI of the same appliance.
    pub fn restore(&mut self, snapshot: &DeviceInterfaceSnapshot) {
        self.cycler.restore(&snapshot.cycler);
        self.counters = snapshot.counters;
        self.seq = snapshot.seq;
        self.planned_start = snapshot.planned_start;
        self.last_published = snapshot.last_published;
    }
}

/// Plain-data snapshot of a [`DeviceInterface`]'s mutable state, captured
/// by [`DeviceInterface::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceInterfaceSnapshot {
    /// Duty-cycle bookkeeping.
    pub cycler: DutyCyclerSnapshot,
    /// Constraint-event counters.
    pub counters: DiCounters,
    /// Status version.
    pub seq: u32,
    /// Committed instance placement.
    pub planned_start: Option<SimTime>,
    /// Last record handed to the communication plane (exact, full
    /// resolution — required for publish-side change detection).
    pub last_published: Option<StatusRecord>,
}

#[cfg(test)]
impl DeviceInterface {
    /// The paper's reproduction DI: 1 kW Type-2, minDCD 15 min, maxDCP 30 min.
    pub(crate) fn paper(id: DeviceId) -> Self {
        DeviceInterface::new(Appliance::paper_type2(id), DutyCycleConstraints::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_sim::time::SimDuration;

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    fn di() -> DeviceInterface {
        DeviceInterface::paper(DeviceId(1))
    }

    #[test]
    fn request_activates() {
        let mut d = di();
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        assert!(d.is_active());
        assert!(!d.is_on());
        assert_eq!(d.power(), Watts::ZERO);
    }

    #[test]
    fn wrong_device_rejected() {
        let mut d = di();
        let err = d
            .handle_request(t(0), &Request::new(DeviceId(9), t(0)))
            .unwrap_err();
        assert!(matches!(err, RequestError::WrongDevice { .. }));
        assert!(err.to_string().contains("d9"));
    }

    #[test]
    fn command_on_draws_power() {
        let mut d = di();
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        assert!(d.command(t(0), true));
        assert_eq!(d.power(), Watts::from_kw(1.0));
    }

    #[test]
    fn early_off_refused_and_counted() {
        let mut d = di();
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        d.command(t(0), true);
        // 5 minutes in: OFF must be refused.
        assert!(d.command(t(5), false), "element must stay ON");
        assert_eq!(d.counters().refused_early_off, 1);
        // 15 minutes in: OFF is legal.
        assert!(!d.command(t(15), false));
        assert_eq!(d.counters().refused_early_off, 1);
    }

    #[test]
    fn on_while_inactive_is_ignored() {
        let mut d = di();
        assert!(!d.command(t(0), true), "inactive device must not switch on");
        assert_eq!(d.power(), Watts::ZERO);
    }

    #[test]
    fn advance_counts_misses_and_serves() {
        let mut d = di();
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        d.command(t(0), true);
        d.command(t(15), false);
        let out = d.advance(t(30));
        assert!(out.deactivated);
        assert_eq!(d.counters().windows_served, 1);
        assert_eq!(d.counters().deadline_misses, 0);

        let mut d2 = di();
        d2.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        d2.advance(t(30));
        assert_eq!(d2.counters().deadline_misses, 1);
    }

    #[test]
    fn status_reflects_state() {
        let mut d = di();
        let idle = d.status(t(0));
        assert!(!idle.active);
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        d.command(t(2), true);
        let s = d.status(t(10));
        assert!(s.active && s.on);
        assert_eq!(s.owed, SimDuration::from_mins(7));
        assert_eq!(s.deadline, Some(t(30)));
        assert_eq!(s.arrival, Some(t(0)));
    }

    #[test]
    fn seq_increments_on_changes() {
        let mut d = di();
        let s0 = d.seq();
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        d.command(t(0), true);
        assert!(d.seq() > s0);
    }

    #[test]
    fn placement_lifecycle() {
        let mut d = di();
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        assert_eq!(d.planned_start(), None);
        let s0 = d.seq();
        d.set_planned_start(Some(t(15)));
        assert_eq!(d.planned_start(), Some(t(15)));
        assert!(d.seq() > s0, "placement must disseminate");
        // Same placement again: no version bump.
        let s1 = d.seq();
        d.set_planned_start(Some(t(15)));
        assert_eq!(d.seq(), s1);
        // Window rollover clears the placement.
        d.advance(t(30));
        assert_eq!(d.planned_start(), None);
        // Status carries placement and power.
        let mut d2 = di();
        d2.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        d2.set_planned_start(Some(t(9)));
        let s = d2.status(t(1));
        assert_eq!(s.planned_start, Some(t(9)));
        assert_eq!(s.power_w, 1000);
    }

    #[test]
    fn snapshot_round_trips_running_device() {
        let mut d = di();
        d.handle_request(t(0), &Request::new(DeviceId(1), t(0)))
            .unwrap();
        d.command(t(0), true);
        d.set_planned_start(Some(t(3)));
        d.publish(t(4));
        let snap = d.snapshot();
        let mut restored = di();
        restored.restore(&snap);
        assert_eq!(restored.seq(), d.seq());
        assert_eq!(restored.planned_start(), d.planned_start());
        assert_eq!(restored.counters(), d.counters());
        assert_eq!(restored.status(t(10)), d.status(t(10)));
        // Publishing an unchanged record must not bump seq on either.
        let s = d.seq();
        d.publish(t(4));
        restored.publish(t(4));
        assert_eq!(d.seq(), s);
        assert_eq!(restored.seq(), s);
    }

    #[test]
    #[should_panic(expected = "Type-2")]
    fn type1_appliance_rejected() {
        DeviceInterface::new(
            Appliance::with_power(
                DeviceId(0),
                crate::appliance::ApplianceKind::Fan,
                crate::power::Watts(75.0),
            ),
            DutyCycleConstraints::paper(),
        );
    }
}
