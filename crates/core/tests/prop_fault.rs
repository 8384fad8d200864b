//! Property tests of the fault-injection plane.
//!
//! Three contracts from the fault plane's design are pinned here:
//!
//! 1. **Inertness** — attaching an *empty* [`FaultPlan`] is bit-identical
//!    to running with no fault plane at all: same digest, trace and CP
//!    statistics.
//! 2. **Obligations held** — minDCD-per-maxDCP never breaks under any
//!    churn/outage timeline: a down Device Interface guards its own
//!    obligations locally, so deadline misses stay at zero.
//! 3. **Checkpoint round-trip** — kill the simulation at a random round,
//!    serialize the checkpoint to bytes, parse it back, resume in a
//!    rebuilt simulation: the resumed run is bit-identical to the
//!    uninterrupted one.
//!
//! Case counts scale with the build profile: the debug run (tier-1
//! `cargo test`) keeps a quick battery, the dedicated release CI job
//! runs the full one.

use han_core::cp::CpModel;
use han_core::fault::{FaultEvent, FaultPlan};
use han_core::simulation::{
    HanSimulation, SimulationConfig, SimulationOutcome, Strategy as SimStrategy,
};
use han_core::Checkpoint;
use han_device::appliance::{ApplianceKind, DeviceId};
use han_device::duty_cycle::DutyCycleConstraints;
use han_device::request::Request;
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::{DeviceClass, FleetSpec};
use proptest::prelude::*;

/// Debug runs (tier-1) keep the battery quick; the release CI job runs
/// the full width.
const CASES: u32 = if cfg!(debug_assertions) { 6 } else { 24 };

/// Horizon of every run in this file, minutes.
const MINUTES: u64 = 40;

/// Type-2 kinds a class can be drawn as.
const TYPE2_KINDS: [ApplianceKind; 4] = [
    ApplianceKind::AirConditioner,
    ApplianceKind::RoomHeater,
    ApplianceKind::WaterHeater,
    ApplianceKind::Fridge,
];

fn build(
    fleet: FleetSpec,
    requests: Vec<Request>,
    cp: CpModel,
    seed: u64,
    faults: &FaultPlan,
) -> HanSimulation {
    let config = SimulationConfig {
        fleet,
        duration: SimDuration::from_mins(MINUTES),
        round_period: SimDuration::from_secs(2),
        strategy: SimStrategy::coordinated(),
        cp,
        seed,
    };
    let mut sim = HanSimulation::new(config, requests).expect("valid config");
    sim.set_faults(faults.clone()).expect("plan fits the fleet");
    sim
}

fn run(
    fleet: FleetSpec,
    requests: Vec<Request>,
    cp: CpModel,
    seed: u64,
    faults: &FaultPlan,
) -> SimulationOutcome {
    build(fleet, requests, cp, seed, faults).run()
}

prop_compose! {
    /// A random heterogeneous fleet — 3..8 devices split into up to two
    /// classes — plus up to one request per device inside the first 15
    /// minutes, so windows are in flight while faults land.
    fn arb_fleet_workload()(
        devices in 3usize..8,
        split in 1usize..8,
        kinds in prop::collection::vec(0..TYPE2_KINDS.len(), 2..3),
        power_deci in prop::collection::vec(1u32..40, 2..3),
        dcd_mins in prop::collection::vec(5u64..14, 2..3),
        specs in prop::collection::btree_map(0u32..8, 0u64..15, 1..8)
    ) -> (FleetSpec, Vec<Request>) {
        let first = split.min(devices - 1).max(1);
        let sizes = if first < devices {
            vec![first, devices - first]
        } else {
            vec![devices]
        };
        let fleet = FleetSpec::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &count)| {
                    let dcd = SimDuration::from_mins(dcd_mins[i % dcd_mins.len()]);
                    DeviceClass::new(
                        format!("class {i}"),
                        TYPE2_KINDS[kinds[i % kinds.len()]],
                        f64::from(power_deci[i % power_deci.len()]) / 10.0,
                        DutyCycleConstraints::new(dcd, dcd + dcd).expect("dcd <= dcp"),
                        count,
                    )
                })
                .collect(),
        )
        .expect("valid fleet");
        let requests = specs
            .into_iter()
            .map(|(slot, minute)| {
                Request::new(DeviceId(slot % devices as u32), SimTime::from_mins(minute))
            })
            .collect();
        (fleet, requests)
    }
}

/// A fleet-independent fault spec: churn entries `(node, minute, down?)`
/// and outage windows `(from, length)` in minutes. Node indices are taken
/// modulo the fleet size by [`plan_for`].
type FaultSpec = (Vec<(usize, u64, u8)>, Vec<(u64, u64)>);

prop_compose! {
    /// Up to three down/up churn events (any interleaving — latest-wins
    /// semantics make every combination legal) and up to two correlated
    /// CP outage windows, all inside the simulated horizon.
    fn arb_fault_spec()(
        churn in prop::collection::vec((0usize..8, 1u64..MINUTES, 0u8..2), 0..4),
        outages in prop::collection::vec((1u64..MINUTES, 1u64..6), 0..3)
    ) -> FaultSpec {
        (churn, outages)
    }
}

/// Materializes a [`FaultSpec`] against a concrete fleet size.
fn plan_for(devices: usize, spec: &FaultSpec) -> FaultPlan {
    let (churn, outages) = spec;
    let mut events = Vec::new();
    for &(node, minute, down) in churn {
        let at = SimTime::from_mins(minute);
        let node = node % devices;
        events.push(if down == 1 {
            FaultEvent::NodeDown { at, node }
        } else {
            FaultEvent::NodeUp { at, node }
        });
    }
    for &(from, len) in outages {
        events.push(FaultEvent::CpOutage {
            from: SimTime::from_mins(from),
            until: SimTime::from_mins(from + len),
        });
    }
    FaultPlan::from_events(events).expect("windows are non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// (a) The empty plan is inert: bit-identical to no fault plane.
    #[test]
    fn empty_plan_is_bit_identical_to_baseline(
        workload in arb_fleet_workload(),
        miss_milli in 0u64..500,
        seed in any::<u64>()
    ) {
        let (fleet, requests) = workload;
        let cp = CpModel::LossyRecord {
            miss_probability: miss_milli as f64 / 1000.0,
        };
        let plain = {
            let config = SimulationConfig {
                fleet: fleet.clone(),
                duration: SimDuration::from_mins(MINUTES),
                round_period: SimDuration::from_secs(2),
                strategy: SimStrategy::coordinated(),
                cp: cp.clone(),
                seed,
            };
            HanSimulation::new(config, requests.clone())
                .expect("valid config")
                .run()
        };
        let empty = run(fleet, requests, cp, seed, &FaultPlan::empty());
        prop_assert_eq!(empty.schedule_digest, plain.schedule_digest);
        prop_assert_eq!(&empty.trace, &plain.trace);
        prop_assert_eq!(empty.divergent_rounds, plain.divergent_rounds);
        prop_assert_eq!(empty.deadline_misses, plain.deadline_misses);
        prop_assert_eq!(
            format!("{:?}", empty.cp),
            format!("{:?}", plain.cp),
            "CP statistics must be untouched"
        );
        prop_assert_eq!(&empty.resilience, &han_metrics::ResilienceStats::default());
    }

    /// (b) minDCD-per-maxDCP holds under ANY fault plan: a down DI keeps
    /// guarding its obligations locally, so churn and outages never cost
    /// a deadline.
    #[test]
    fn obligations_hold_under_arbitrary_churn(
        workload in arb_fleet_workload(),
        spec in arb_fault_spec(),
        seed in any::<u64>()
    ) {
        let (fleet, requests) = workload;
        let faults = plan_for(fleet.device_count(), &spec);
        let outcome = run(
            fleet,
            requests,
            CpModel::Ideal,
            seed,
            &faults,
        );
        prop_assert_eq!(
            outcome.deadline_misses, 0,
            "faults degrade agreement, never obligations (plan: {:?})",
            faults
        );
        prop_assert_eq!(outcome.resilience.misses_while_down, 0);
        prop_assert_eq!(outcome.resilience.misses_during_outage, 0);
    }

    /// (c) Kill-restore-resume is bit-identical to the uninterrupted run,
    /// through the full byte codec, at an arbitrary kill round.
    #[test]
    fn checkpoint_restore_round_trips(
        workload in arb_fleet_workload(),
        spec in arb_fault_spec(),
        miss_milli in 0u64..400,
        kill_frac in 0u64..100,
        seed in any::<u64>()
    ) {
        let (fleet, requests) = workload;
        let faults = plan_for(fleet.device_count(), &spec);
        let cp = CpModel::LossyRound {
            miss_probability: miss_milli as f64 / 1000.0,
        };
        let baseline = run(
            fleet.clone(),
            requests.clone(),
            cp.clone(),
            seed,
            &faults,
        );
        // Kill anywhere in the timeline (rounds are 2 s over MINUTES).
        let total_rounds = MINUTES * 30 + 1;
        let kill_round = total_rounds * kill_frac / 100;
        let (full, checkpoint) = build(
            fleet.clone(),
            requests.clone(),
            cp.clone(),
            seed,
            &faults,
        )
        .run_checkpointed(kill_round);
        prop_assert_eq!(
            full.schedule_digest, baseline.schedule_digest,
            "snapshotting mid-run must not perturb the run itself"
        );
        // The process "dies" here: all that survives is the byte string.
        let bytes = checkpoint.to_bytes();
        let restored = Checkpoint::from_bytes(&bytes).expect("own bytes parse back");
        prop_assert_eq!(restored.round(), kill_round);
        let resumed = build(fleet, requests, cp, seed, &faults)
            .resume(&restored)
            .expect("configuration fingerprints match");
        prop_assert_eq!(
            resumed.schedule_digest, baseline.schedule_digest,
            "resumed run must re-issue byte-identical schedules"
        );
        prop_assert_eq!(&resumed.trace, &baseline.trace);
        prop_assert_eq!(resumed.deadline_misses, baseline.deadline_misses);
        prop_assert_eq!(resumed.windows_served, baseline.windows_served);
        prop_assert_eq!(resumed.divergent_rounds, baseline.divergent_rounds);
        prop_assert_eq!(
            format!("{:?}", resumed.cp),
            format!("{:?}", baseline.cp),
            "CP statistics must survive the round trip exactly"
        );
        prop_assert_eq!(&resumed.resilience, &baseline.resilience);
    }
}
