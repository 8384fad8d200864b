//! Quickstart: six smart appliances, one synchronized burst of requests.
//!
//! Shows the headline mechanism in miniature: without coordination a burst
//! of requests stacks the full load at once; with the collaborative plane
//! the instances are spread across the duty-cycle windows and the peak
//! halves — while everyone still gets their minDCD within maxDCP.
//!
//! Run with: `cargo run --example quickstart`

use smart_han::prelude::*;
use smart_han::workload::burst;

fn main() -> Result<(), ScenarioError> {
    // Six 1 kW Type-2 devices, paper constraints (15 min of every 30 min),
    // all requested at once at t = 2 min.
    let requests = burst(SimTime::from_mins(2), 6);
    let duration = SimDuration::from_mins(45);

    let config = |strategy| SimulationConfig {
        fleet: FleetSpec::uniform(6, 1.0, DutyCycleConstraints::paper())
            .expect("valid uniform fleet"),
        duration,
        round_period: SimDuration::from_secs(2),
        strategy,
        cp: CpModel::Ideal,
        seed: 1,
    };

    let unco = HanSimulation::new(config(Strategy::Uncoordinated), requests.clone())?.run();
    let coord = HanSimulation::new(config(Strategy::coordinated()), requests)?.run();

    let end = SimTime::ZERO + duration;
    let minute = SimDuration::from_mins(1);
    let unco_samples = unco.trace.sample(SimTime::ZERO, end, minute);
    let coord_samples = coord.trace.sample(SimTime::ZERO, end, minute);

    println!("load over time (kW), one row per 3 minutes:");
    println!("{:>6}  {:>12}  {:>12}", "min", "w/o coord", "with coord");
    for (i, (u, c)) in unco_samples.iter().zip(&coord_samples).enumerate() {
        if i % 3 == 0 {
            println!("{i:>6}  {u:>12.1}  {c:>12.1}");
        }
    }

    let mut report = ComparisonReport::new("burst of 6 requests");
    report.push(ComparisonRow::new(
        "peak load (kW)",
        Summary::of(&unco_samples).peak,
        Summary::of(&coord_samples).peak,
    ));
    report.push(ComparisonRow::new(
        "load std dev (kW)",
        Summary::of(&unco_samples).std_dev,
        Summary::of(&coord_samples).std_dev,
    ));
    report.push(ComparisonRow::new(
        "energy (kWh)",
        unco.energy_kwh,
        coord.energy_kwh,
    ));
    println!("\n{}", report.to_table());
    println!(
        "obligations met: {}/{} (coordinated), deadline misses: {}",
        coord.windows_served,
        coord.windows_served + coord.deadline_misses,
        coord.deadline_misses
    );
    Ok(())
}
