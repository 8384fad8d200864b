//! End-to-end integration tests of the coordinated load-management stack
//! on the paper's scenarios (ideal communication plane).

use smart_han::core::experiment::{compare, compare_seeds, Comparison};
use smart_han::prelude::*;
use smart_han::workload::burst;

#[test]
fn paper_shape_holds_across_rates_and_seeds() {
    // Fig. 2(b)/(c) shape: coordination never worsens the peak, cuts the
    // variation at moderate/high rates, and leaves the average intact.
    for rate in ArrivalRate::all() {
        let comparisons =
            compare_seeds(&Scenario::paper(rate, 0), &CpModel::Ideal, 0..3).expect("valid");
        for c in &comparisons {
            assert!(
                c.coordinated.summary.peak <= c.uncoordinated.summary.peak + 1e-9,
                "{rate}: coordination must not raise the peak ({} vs {})",
                c.coordinated.summary.peak,
                c.uncoordinated.summary.peak
            );
            assert!(
                c.average_gap_percent() < 5.0,
                "{rate}: averages must match, gap {}%",
                c.average_gap_percent()
            );
            assert_eq!(
                c.coordinated.outcome.deadline_misses, 0,
                "{rate}: obligations must be met"
            );
        }
        if rate == ArrivalRate::High {
            let mean_peak_red: f64 = comparisons
                .iter()
                .map(Comparison::peak_reduction_percent)
                .sum::<f64>()
                / comparisons.len() as f64;
            assert!(
                mean_peak_red > 15.0,
                "high rate should shave a substantial peak share, got {mean_peak_red}%"
            );
        }
    }
}

#[test]
fn energy_is_conserved_between_strategies() {
    // Coordination shifts load in time; it must not shed or add energy.
    for seed in 0..3 {
        let c = compare(
            &Scenario::paper(ArrivalRate::Moderate, seed),
            CpModel::Ideal,
        )
        .expect("valid");
        let gap = (c.coordinated.outcome.energy_kwh - c.uncoordinated.outcome.energy_kwh).abs();
        // Tail effects: instances deferred near the end of the run may be
        // truncated; allow a small fraction of one instance.
        assert!(
            gap < 0.6,
            "seed {seed}: energy gap {gap} kWh too large ({} vs {})",
            c.coordinated.outcome.energy_kwh,
            c.uncoordinated.outcome.energy_kwh
        );
    }
}

#[test]
fn synchronized_burst_halves_the_peak_exactly() {
    // The cleanest statement of the paper's claim: a burst of 2k identical
    // obligations is served k + k.
    for k in [2usize, 3, 5, 8] {
        let duration = SimDuration::from_mins(60);
        let config = |strategy| SimulationConfig {
            fleet: FleetSpec::uniform(2 * k, 1.0, DutyCycleConstraints::paper()).unwrap(),
            duration,
            round_period: SimDuration::from_secs(2),
            strategy,
            cp: CpModel::Ideal,
            seed: 1,
        };
        let requests = burst(SimTime::from_mins(1), 2 * k);
        let unco = HanSimulation::new(config(Strategy::Uncoordinated), requests.clone())
            .unwrap()
            .run();
        let coord = HanSimulation::new(config(Strategy::coordinated()), requests)
            .unwrap()
            .run();
        let end = SimTime::ZERO + duration;
        assert_eq!(unco.trace.peak(SimTime::ZERO, end), 2.0 * k as f64);
        assert_eq!(coord.trace.peak(SimTime::ZERO, end), k as f64);
        assert_eq!(coord.deadline_misses, 0);
        assert_eq!(coord.windows_served, 2 * k as u32);
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let scenario = Scenario::paper(ArrivalRate::High, 9);
    let a = compare(&scenario, CpModel::Ideal).expect("valid");
    let b = compare(&scenario, CpModel::Ideal).expect("valid");
    assert_eq!(a.coordinated.samples, b.coordinated.samples);
    assert_eq!(a.uncoordinated.samples, b.uncoordinated.samples);
}

#[test]
fn schedules_agree_on_every_round_under_ideal_cp() {
    let scenario = Scenario::paper(ArrivalRate::High, 4);
    let c = compare(&scenario, CpModel::Ideal).expect("valid");
    assert_eq!(
        c.coordinated.outcome.divergent_rounds, 0,
        "identical views must yield identical schedules"
    );
    assert_eq!(c.coordinated.outcome.refused_early_off, 0);
}

#[test]
fn centralized_matches_coordinated_when_healthy() {
    let duration = SimDuration::from_mins(120);
    let requests = PoissonArrivals::new(18.0, 26).generate(duration, 2);
    let config = |strategy| SimulationConfig {
        fleet: FleetSpec::paper(),
        duration,
        round_period: SimDuration::from_secs(2),
        strategy,
        cp: CpModel::Ideal,
        seed: 2,
    };
    let cent = HanSimulation::new(
        config(Strategy::Centralized {
            controller: DeviceId(3),
            plan: PlanConfig::default(),
            crash_at: None,
        }),
        requests.clone(),
    )
    .unwrap()
    .run();
    let coord = HanSimulation::new(config(Strategy::coordinated()), requests)
        .unwrap()
        .run();
    assert_eq!(cent.deadline_misses, 0);
    // Same planner, same view: the load traces must coincide.
    assert_eq!(cent.trace, coord.trace);
}

#[test]
fn controller_crash_breaks_centralized_but_not_decentralized() {
    let duration = SimDuration::from_mins(150);
    let requests = PoissonArrivals::new(30.0, 26).generate(duration, 7);
    let config = |strategy| SimulationConfig {
        fleet: FleetSpec::paper(),
        duration,
        round_period: SimDuration::from_secs(2),
        strategy,
        cp: CpModel::Ideal,
        seed: 7,
    };
    let crashed = HanSimulation::new(
        config(Strategy::Centralized {
            controller: DeviceId(0),
            plan: PlanConfig::default(),
            crash_at: Some(SimTime::from_mins(75)),
        }),
        requests.clone(),
    )
    .unwrap()
    .run();
    let coord = HanSimulation::new(config(Strategy::coordinated()), requests)
        .unwrap()
        .run();
    assert!(
        crashed.deadline_misses > 0,
        "a dead controller must strand obligations"
    );
    assert_eq!(coord.deadline_misses, 0);
}

#[test]
fn heterogeneous_fleet_respects_power_weighting() {
    let duration = SimDuration::from_mins(90);
    let paper = DutyCycleConstraints::paper;
    let fleet = FleetSpec::new(vec![
        DeviceClass::new("heater", ApplianceKind::WaterHeater, 3.0, paper(), 1),
        DeviceClass::new("ac", ApplianceKind::AirConditioner, 1.0, paper(), 2),
        DeviceClass::new("fridge", ApplianceKind::Fridge, 0.2, paper(), 1),
    ])
    .unwrap();
    let requests = burst(SimTime::from_mins(1), 4);
    let config = SimulationConfig {
        fleet,
        duration,
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::coordinated(),
        cp: CpModel::Ideal,
        seed: 1,
    };
    let outcome = HanSimulation::new(config, requests).unwrap().run();
    let end = SimTime::ZERO + duration;
    let peak = outcome.trace.peak(SimTime::ZERO, end);
    // Total 5.2 kW of simultaneous demand; the water level is
    // ceil(5.2 × 15/30) = 3 kW, so the heater runs alone first.
    assert!(
        peak <= 3.2 + 1e-9,
        "power-weighted staggering should cap the burst at ~3 kW, got {peak}"
    );
    assert_eq!(outcome.deadline_misses, 0);
}
