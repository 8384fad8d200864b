//! Property-based tests of end-to-end invariants: for arbitrary request
//! workloads, the coordinated plane must (i) never miss a feasible
//! obligation, (ii) never beat physics (energy conservation vs. the
//! baseline), and (iii) never stack worse than the baseline's exact peak.

use proptest::prelude::*;
use smart_han::core::Strategy as HanStrategy;
use smart_han::prelude::*;

fn run(strategy: HanStrategy, requests: Vec<Request>, devices: usize) -> SimulationOutcome {
    let config = SimulationConfig {
        fleet: FleetSpec::uniform(devices, 1.0, DutyCycleConstraints::paper()).unwrap(),
        duration: SimDuration::from_mins(120),
        round_period: SimDuration::from_secs(2),
        strategy,
        cp: CpModel::Ideal,
        seed: 0,
    };
    HanSimulation::new(config, requests)
        .expect("valid config")
        .run()
}

prop_compose! {
    /// At most one request per device, arriving in the first 80 minutes —
    /// every activity window then closes inside the 120-minute run, so
    /// energy comparisons are free of end-of-run truncation. (Repeated
    /// requests extending a device's activity are covered by the unit and
    /// integration tests.)
    fn arb_requests()(
        specs in prop::collection::btree_map(0u32..10, 0u64..80, 0..10)
    ) -> Vec<Request> {
        specs
            .into_iter()
            .map(|(device, minute)| Request::new(DeviceId(device), SimTime::from_mins(minute)))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_feasible_obligation_is_missed(requests in arb_requests()) {
        let outcome = run(HanStrategy::coordinated(), requests, 10);
        prop_assert_eq!(outcome.deadline_misses, 0);
    }

    #[test]
    fn energy_matches_baseline(requests in arb_requests()) {
        let coord = run(HanStrategy::coordinated(), requests.clone(), 10);
        let unco = run(HanStrategy::Uncoordinated, requests, 10);
        // All windows close within the horizon, so the served energy must
        // agree to within round-granularity slack per request.
        let gap = (coord.energy_kwh - unco.energy_kwh).abs();
        prop_assert!(gap < 0.1, "energy gap {} kWh", gap);
    }

    #[test]
    fn peak_never_exceeds_baseline_peak(requests in arb_requests()) {
        let coord = run(HanStrategy::coordinated(), requests.clone(), 10);
        let unco = run(HanStrategy::Uncoordinated, requests, 10);
        let end = SimTime::ZERO + SimDuration::from_mins(120);
        let peak_c = coord.trace.peak(SimTime::ZERO, end);
        let peak_u = unco.trace.peak(SimTime::ZERO, end);
        prop_assert!(
            peak_c <= peak_u + 1e-9,
            "coordinated exact peak {} vs baseline {}",
            peak_c, peak_u
        );
    }

    #[test]
    fn load_is_nonnegative_and_bounded(requests in arb_requests()) {
        let outcome = run(HanStrategy::coordinated(), requests, 10);
        for &(_, kw) in outcome.trace.points() {
            prop_assert!((0.0..=10.0 + 1e-9).contains(&kw), "load {} out of range", kw);
        }
    }

    #[test]
    fn schedules_agree_for_any_workload(requests in arb_requests()) {
        let outcome = run(HanStrategy::coordinated(), requests, 10);
        prop_assert_eq!(outcome.divergent_rounds, 0);
        prop_assert_eq!(outcome.refused_early_off, 0);
    }
}
