//! Full-stack run on the FlockLab-like testbed: packet-level MiniCast.
//!
//! Everything the paper deployed, end to end: 26 Device Interfaces on an
//! office-floor topology, every 2 s a synchronous-transmission all-to-all
//! round (sync beacon + 26 aggregated Glossy floods, capture effect and
//! all), and the collaborative scheduler running on each node's own —
//! possibly incomplete — view.
//!
//! Run with: `cargo run --release --example testbed_flocklab`

use smart_han::prelude::*;

fn main() {
    let duration = SimDuration::from_mins(60);
    let requests = PoissonArrivals::new(30.0, 26).generate(duration, 5);
    println!(
        "60 min on the 26-node testbed, {} requests at the paper's high rate",
        requests.len()
    );

    let config = SimulationConfig {
        fleet: FleetSpec::paper(),
        duration,
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::coordinated(),
        cp: CpModel::paper_packet(3),
        seed: 5,
    };

    let outcome = HanSimulation::new(config, requests)
        .expect("valid config")
        .run();

    println!("\ncommunication plane (packet-level MiniCast):");
    println!("  rounds executed           : {}", outcome.rounds);
    println!(
        "  record delivery rate      : {:.2}%",
        outcome.cp.delivery_rate() * 100.0
    );
    println!(
        "  fully-synchronized rounds : {:.1}%",
        outcome.cp.full_round_rate() * 100.0
    );
    if let Some(d) = &outcome.cp.dissemination {
        println!(
            "  MiniCast mean reliability : {:.2}% (worst node {:.1}%)",
            d.mean_reliability() * 100.0,
            d.worst_reliability() * 100.0
        );
        println!(
            "  all-to-all round rate     : {:.1}%",
            d.all_to_all_rate() * 100.0
        );
        println!(
            "  radio on per node per round: {} (duty cycle {:.1}%)",
            d.mean_radio_on_per_round(),
            d.duty_cycle(SimDuration::from_secs(2)) * 100.0
        );
        println!("  total transmissions       : {}", d.total_tx());
        println!(
            "  radio energy per DI       : {:.0} J/day (CC2420 at 3 V)",
            d.energy_per_node_per_day_mj(SimDuration::from_secs(2)) / 1000.0
        );
    }
    if let Some(err) = outcome.cp.worst_sync_error {
        println!("  worst clock-sync error    : {err} (20 ppm crystals, beacon every round)");
    }

    println!("\nexecution plane:");
    println!(
        "  schedule divergence       : {} of {} rounds ({:.2}%)",
        outcome.divergent_rounds,
        outcome.rounds,
        outcome.divergent_rounds as f64 / outcome.rounds as f64 * 100.0
    );
    println!("  windows served            : {}", outcome.windows_served);
    println!("  deadline misses           : {}", outcome.deadline_misses);
    println!(
        "  refused early-off commands: {}",
        outcome.refused_early_off
    );
    println!(
        "  energy delivered          : {:.2} kWh",
        outcome.energy_kwh
    );

    let end = SimTime::ZERO + duration;
    let peak = outcome.trace.peak(SimTime::ZERO, end);
    println!("  peak load                 : {peak:.1} kW");
}
