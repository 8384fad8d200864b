//! Differential property test of the memoized execution plane.
//!
//! For random request workloads under random *lossy* communication planes
//! (where per-node views genuinely diverge), the memoized
//! grouped-planning fast path must produce **byte-identical schedules**
//! at every node in every round — probed by the order-sensitive
//! `schedule_digest` — and identical `divergent_rounds`, load traces and
//! service metrics to the naive per-node reference path.

use han_core::cp::CpModel;
use han_core::simulation::{HanSimulation, SimulationConfig, SimulationOutcome, Strategy};
use han_device::appliance::DeviceId;
use han_device::duty_cycle::DutyCycleConstraints;
use han_device::request::Request;
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::FleetSpec;
use proptest::prelude::*;

fn run(
    devices: usize,
    requests: Vec<Request>,
    cp: CpModel,
    seed: u64,
    reference: bool,
) -> SimulationOutcome {
    let config = SimulationConfig {
        fleet: FleetSpec::uniform(devices, 1.0, DutyCycleConstraints::paper())
            .expect("valid fleet"),
        duration: SimDuration::from_mins(45),
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::coordinated(),
        cp,
        seed,
    };
    let mut sim = HanSimulation::new(config, requests).expect("valid config");
    sim.set_reference_planning(reference);
    sim.run()
}

prop_compose! {
    /// Up to one request per device slot, arriving inside the first
    /// 25 minutes (so windows are in flight while the CP is lossy).
    fn arb_workload()(
        devices in 3usize..12,
        specs in prop::collection::btree_map(0u32..12, 0u64..25, 1..12)
    ) -> (usize, Vec<Request>) {
        let requests = specs
            .into_iter()
            .map(|(slot, minute)| {
                Request::new(
                    DeviceId(slot % devices as u32),
                    SimTime::from_mins(minute),
                )
            })
            .collect();
        (devices, requests)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 32 }))]

    #[test]
    fn memoized_matches_reference_under_lossy_round(
        workload in arb_workload(),
        miss_milli in 0u64..500,
        seed in any::<u64>()
    ) {
        let (devices, requests) = workload;
        let cp = CpModel::LossyRound {
            miss_probability: miss_milli as f64 / 1000.0,
        };
        let fast = run(devices, requests.clone(), cp.clone(), seed, false);
        let reference = run(devices, requests, cp, seed, true);
        prop_assert_eq!(
            fast.schedule_digest, reference.schedule_digest,
            "schedules must be byte-identical at every node in every round"
        );
        prop_assert_eq!(fast.divergent_rounds, reference.divergent_rounds);
        prop_assert_eq!(&fast.trace, &reference.trace);
        prop_assert_eq!(fast.deadline_misses, reference.deadline_misses);
        prop_assert_eq!(fast.windows_served, reference.windows_served);
        prop_assert!((fast.energy_kwh - reference.energy_kwh).abs() < 1e-12);
    }

    #[test]
    fn memoized_matches_reference_under_lossy_record(
        workload in arb_workload(),
        miss_milli in 0u64..500,
        seed in any::<u64>()
    ) {
        let (devices, requests) = workload;
        let cp = CpModel::LossyRecord {
            miss_probability: miss_milli as f64 / 1000.0,
        };
        let fast = run(devices, requests.clone(), cp.clone(), seed, false);
        let reference = run(devices, requests, cp, seed, true);
        prop_assert_eq!(fast.schedule_digest, reference.schedule_digest);
        prop_assert_eq!(fast.divergent_rounds, reference.divergent_rounds);
        prop_assert_eq!(&fast.trace, &reference.trace);
    }

    #[test]
    fn memoized_matches_reference_under_ideal(
        workload in arb_workload(),
        seed in any::<u64>()
    ) {
        // Ideal CP is the maximal-collapse case (one group per round):
        // the digest equality proves N-fold grouping loses nothing.
        let (devices, requests) = workload;
        let fast = run(devices, requests.clone(), CpModel::Ideal, seed, false);
        let reference = run(devices, requests, CpModel::Ideal, seed, true);
        prop_assert_eq!(fast.schedule_digest, reference.schedule_digest);
        prop_assert_eq!(fast.divergent_rounds, 0u64);
        prop_assert_eq!(reference.divergent_rounds, 0u64);
        prop_assert_eq!(&fast.trace, &reference.trace);
    }
}
