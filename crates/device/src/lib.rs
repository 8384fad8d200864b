//! # han-device — appliances, duty cycles and Device Interfaces
//!
//! Models the electrical side of the paper's HAN:
//!
//! * [`power`] — the [`power::Watts`] unit;
//! * [`appliance`] — the Type-1 / Type-2 appliance catalogue
//!   ([`appliance::ApplianceKind`], [`appliance::Appliance`]);
//! * [`duty_cycle`] — the minDCD/maxDCP constraint pair and the
//!   [`duty_cycle::DutyCycler`] bookkeeping state machine (windows, owed
//!   time, laxity);
//! * [`thermal`] — first-order RC room model driving realistic duty cycles;
//! * [`request`] — user requests;
//! * [`status`] — the 23-byte status record DIs publish each round;
//! * [`interface`] — [`interface::DeviceInterface`]: appliance + cycler +
//!   safety interlock against schedule commands that violate minDCD.
//!
//! # Public API
//!
//! What `han-core`, `han-workload`, the bins, perfbench and the examples
//! call: the Device Interface with its snapshot and counters, read access
//! to its [`duty_cycle::DutyCycler`], the status record's codec, requests,
//! the appliance kinds, the constraint pair, [`Watts`], and the thermal
//! model of the `smart_home_day` example. Everything else is
//! crate-private. [`status::StatusRecord::idle`] has no production caller
//! outside this crate: it stays public because `han-core`'s tests build
//! views from it, and a test in another crate cannot reach test-only code
//! here.
//!
//! # Examples
//!
//! A 1 kW paper device serving one request:
//!
//! ```
//! use han_device::appliance::{Appliance, ApplianceKind, DeviceId};
//! use han_device::duty_cycle::DutyCycleConstraints;
//! use han_device::interface::DeviceInterface;
//! use han_device::power::Watts;
//! use han_device::request::Request;
//! use han_sim::time::SimTime;
//!
//! let ac = Appliance::with_power(DeviceId(0), ApplianceKind::AirConditioner, Watts::from_kw(1.0));
//! let mut di = DeviceInterface::new(ac, DutyCycleConstraints::paper());
//! di.handle_request(SimTime::ZERO, &Request::new(DeviceId(0), SimTime::ZERO))?;
//! di.command(SimTime::ZERO, true);
//! assert_eq!(di.power().as_kw(), 1.0);
//! # Ok::<(), han_device::interface::RequestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod appliance;
pub mod duty_cycle;
pub mod interface;
pub mod power;
pub mod request;
pub mod status;
pub mod thermal;

pub use appliance::{Appliance, ApplianceKind, DeviceClass, DeviceId};
pub use duty_cycle::DutyCycleConstraints;
pub use interface::DeviceInterface;
pub use power::Watts;
pub use request::Request;
pub use status::StatusRecord;

#[cfg(test)]
mod proptests {
    // Property-based tests of the duty-cycle state machine: for arbitrary
    // command sequences, the bookkeeping invariants must hold.
    use crate::duty_cycle::{DutyCycleConstraints, DutyCycler};
    use crate::status::StatusRecord;
    use crate::{DeviceId, DeviceInterface, Request};
    use han_sim::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    /// A random step applied to the cycler at a monotonically advancing time.
    #[derive(Debug, Clone)]
    enum Step {
        Advance(u64),
        Activate(u8),
        On,
        TryOff,
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec(
            prop_oneof![
                (1u64..1200).prop_map(Step::Advance),
                (1u8..3).prop_map(Step::Activate),
                Just(Step::On),
                Just(Step::TryOff),
            ],
            1..80,
        )
    }

    proptest! {
        #[test]
        fn cycler_invariants_hold_for_any_command_sequence(steps in arb_steps()) {
            let constraints = DutyCycleConstraints::paper();
            let mut cycler = DutyCycler::new(constraints);
            let mut now = SimTime::ZERO;
            for step in steps {
                match step {
                    Step::Advance(secs) => {
                        now += SimDuration::from_secs(secs);
                        cycler.advance(now);
                    }
                    Step::Activate(w) => cycler.activate(now, u32::from(w)),
                    Step::On => {
                        if cycler.is_active() {
                            cycler.set_on(now);
                        }
                    }
                    Step::TryOff => {
                        // May be refused; both outcomes are legal.
                        let _ = cycler.set_off(now);
                    }
                }
                // Invariants after every step:
                // (1) ON implies active.
                prop_assert!(!cycler.is_on() || cycler.is_active());
                // (2) owed never exceeds minDCD.
                prop_assert!(cycler.owed(now) <= constraints.min_dcd());
                // (3) served in the current window never exceeds the window.
                prop_assert!(cycler.served_in_window(now) <= constraints.max_dcp());
                // (4) deadline, when present, is in the present or future
                //     after bookkeeping caught up.
                if let Some(d) = cycler.window_deadline() {
                    prop_assert!(d + constraints.max_dcp() > now);
                }
                // (5) inactive state is fully reset.
                if !cycler.is_active() {
                    prop_assert_eq!(cycler.owed(now), SimDuration::ZERO);
                    prop_assert_eq!(cycler.windows_remaining(), 0);
                    prop_assert!(cycler.arrival().is_none());
                }
            }
        }

        #[test]
        fn di_refuses_every_early_off(
            on_at in 0u64..600,
            off_at in 0u64..1800
        ) {
            let mut di = DeviceInterface::paper(DeviceId(0));
            di.handle_request(SimTime::ZERO, &Request::new(DeviceId(0), SimTime::ZERO))
                .expect("own device");
            let t_on = SimTime::from_secs(on_at);
            di.command(t_on, true);
            let t_off = SimTime::from_secs(on_at + off_at);
            let still_on = di.command(t_off, false);
            let instance = SimDuration::from_secs(off_at);
            if instance < SimDuration::from_mins(15) {
                prop_assert!(still_on, "early OFF must be refused");
                prop_assert_eq!(di.counters().refused_early_off, 1);
            } else {
                prop_assert!(!still_on, "completed instance must release");
                prop_assert_eq!(di.counters().refused_early_off, 0);
            }
        }

        #[test]
        fn status_round_trips_for_any_state(
            active in any::<bool>(),
            on in any::<bool>(),
            owed_s in 0u64..u16::MAX as u64,
            deadline_s in prop::option::of(0u64..4_000_000),
            windows in 0u32..255,
            arrival_s in prop::option::of(0u64..4_000_000),
            planned_s in prop::option::of(0u64..4_000_000),
            power in any::<u16>(),
        ) {
            let rec = StatusRecord {
                device: DeviceId(7),
                active,
                on: on && active,
                owed: SimDuration::from_secs(owed_s),
                deadline: deadline_s.map(SimTime::from_secs),
                windows_remaining: windows,
                arrival: arrival_s.map(SimTime::from_secs),
                planned_start: planned_s.map(SimTime::from_secs),
                power_w: power,
                min_dcd: SimDuration::from_mins(15),
                max_dcp: SimDuration::from_mins(30),
            };
            let decoded = StatusRecord::decode(&rec.encode()).expect("round trip");
            prop_assert_eq!(decoded, rec);
        }

        #[test]
        fn laxity_decreases_as_time_passes(now_min in 0u64..14) {
            let mut cycler = DutyCycler::new(DutyCycleConstraints::paper());
            cycler.activate(SimTime::ZERO, 1);
            let early = cycler.laxity_micros(SimTime::from_mins(now_min)).expect("owed");
            let later = cycler.laxity_micros(SimTime::from_mins(now_min + 1)).expect("owed");
            prop_assert!(later < early, "laxity must shrink while OFF");
        }
    }
}
