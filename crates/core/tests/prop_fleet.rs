//! Differential property tests of the fleet-spec API migration.
//!
//! 1. **Class partitioning is invisible**: a heterogeneous [`FleetSpec`]
//!    whose classes are all 1 kW with the paper's constraints must be
//!    byte-identical — `schedule_digest`, load trace, `divergent_rounds`,
//!    service metrics — to the homogeneous single-class fleet of the same
//!    size (the old flat `device_count`/`device_power_kw` path), under
//!    ideal and lossy communication planes alike.
//! 2. **Memoization is power-blind**: on genuinely mixed-power,
//!    mixed-constraint fleets under lossy CPs, the memoized grouped
//!    execution plane must still issue byte-identical schedules to the
//!    naive per-node reference plane.

use han_core::cp::CpModel;
use han_core::simulation::{HanSimulation, SimulationConfig, SimulationOutcome, Strategy};
use han_device::appliance::{ApplianceKind, DeviceId};
use han_device::duty_cycle::DutyCycleConstraints;
use han_device::request::Request;
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::{DeviceClass, FleetSpec};
use proptest::prelude::*;

/// Type-2 kinds a 1 kW class can be drawn as; the kind never enters the
/// status record, so it must never influence the schedule.
const TYPE2_KINDS: [ApplianceKind; 5] = [
    ApplianceKind::AirConditioner,
    ApplianceKind::RoomHeater,
    ApplianceKind::WaterHeater,
    ApplianceKind::Fridge,
    ApplianceKind::WaterCooler,
];

fn run(
    fleet: FleetSpec,
    requests: Vec<Request>,
    cp: CpModel,
    reference: bool,
) -> SimulationOutcome {
    let config = SimulationConfig {
        fleet,
        duration: SimDuration::from_mins(45),
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::coordinated(),
        cp,
        seed: 7,
    };
    let mut sim = HanSimulation::new(config, requests).expect("valid config");
    sim.set_reference_planning(reference);
    sim.run()
}

prop_compose! {
    /// A partition of `devices` into 1..=devices classes, plus a workload
    /// of up to one request per device inside the first 25 minutes.
    fn arb_partitioned_workload()(
        devices in 3usize..12,
        raw_cuts in prop::collection::vec(1..12usize, 0..4),
        kinds in prop::collection::vec(0..TYPE2_KINDS.len(), 12..13),
        specs in prop::collection::btree_map(0u32..12, 0u64..25, 1..12)
    ) -> (usize, Vec<usize>, Vec<ApplianceKind>, Vec<Request>) {
        // Split `devices` at the (in-range) cut points into class sizes.
        let mut cuts = raw_cuts;
        cuts.sort_unstable();
        cuts.dedup();
        let mut sizes = Vec::new();
        let mut prev = 0usize;
        for &c in cuts.iter().filter(|&&c| c < devices) {
            sizes.push(c - prev);
            prev = c;
        }
        sizes.push(devices - prev);
        let requests = specs
            .into_iter()
            .map(|(slot, minute)| {
                Request::new(DeviceId(slot % devices as u32), SimTime::from_mins(minute))
            })
            .collect();
        (devices, sizes, kinds.into_iter().map(|k| TYPE2_KINDS[k]).collect(), requests)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 32 }))]

    #[test]
    fn partitioned_1kw_fleet_identical_to_homogeneous(
        workload in arb_partitioned_workload(),
        miss_milli in 0u64..500,
    ) {
        let (devices, sizes, kinds, requests) = workload;
        let homogeneous = FleetSpec::uniform(devices, 1.0, DutyCycleConstraints::paper())
            .expect("valid fleet");
        let partitioned = FleetSpec::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &count)| {
                    DeviceClass::new(
                        format!("class {i}"),
                        kinds[i % kinds.len()],
                        1.0,
                        DutyCycleConstraints::paper(),
                        count,
                    )
                })
                .collect(),
        )
        .expect("valid fleet");
        prop_assert_eq!(partitioned.device_count(), devices);

        for cp in [
            CpModel::Ideal,
            CpModel::LossyRound {
                miss_probability: miss_milli as f64 / 1000.0,
            },
        ] {
            let uniform = run(homogeneous.clone(), requests.clone(), cp.clone(), false);
            let split = run(partitioned.clone(), requests.clone(), cp, false);
            prop_assert_eq!(
                split.schedule_digest, uniform.schedule_digest,
                "class partitioning must not change a single schedule byte"
            );
            prop_assert_eq!(&split.trace, &uniform.trace);
            prop_assert_eq!(split.divergent_rounds, uniform.divergent_rounds);
            prop_assert_eq!(split.deadline_misses, uniform.deadline_misses);
            prop_assert_eq!(split.windows_served, uniform.windows_served);
            prop_assert!((split.energy_kwh - uniform.energy_kwh).abs() < 1e-12);
        }
    }

    #[test]
    fn memoized_matches_reference_on_mixed_fleets_under_loss(
        workload in arb_partitioned_workload(),
        power_deci in prop::collection::vec(1u32..40, 12..13),
        dcd_mins in prop::collection::vec(5u64..16, 12..13),
        miss_milli in 0u64..500,
        per_record in any::<bool>(),
    ) {
        let (_, sizes, kinds, requests) = workload;
        // Mixed powers (0.1..4.0 kW) and mixed minDCD (5..15 min, maxDCP
        // = 2 × minDCD) per class: full heterogeneity under a lossy CP.
        let fleet = FleetSpec::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &count)| {
                    let dcd = SimDuration::from_mins(dcd_mins[i % dcd_mins.len()]);
                    DeviceClass::new(
                        format!("class {i}"),
                        kinds[i % kinds.len()],
                        f64::from(power_deci[i % power_deci.len()]) / 10.0,
                        DutyCycleConstraints::new(dcd, dcd + dcd).expect("dcd <= dcp"),
                        count,
                    )
                })
                .collect(),
        )
        .expect("valid fleet");
        let p = miss_milli as f64 / 1000.0;
        let cp = if per_record {
            CpModel::LossyRecord { miss_probability: p }
        } else {
            CpModel::LossyRound { miss_probability: p }
        };
        let fast = run(fleet.clone(), requests.clone(), cp.clone(), false);
        let reference = run(fleet, requests, cp, true);
        prop_assert_eq!(
            fast.schedule_digest, reference.schedule_digest,
            "memoized plane must be byte-identical on heterogeneous fleets"
        );
        prop_assert_eq!(&fast.trace, &reference.trace);
        prop_assert_eq!(fast.divergent_rounds, reference.divergent_rounds);
        prop_assert_eq!(fast.deadline_misses, reference.deadline_misses);
        prop_assert_eq!(fast.windows_served, reference.windows_served);
    }
}
