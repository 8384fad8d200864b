//! The online service mode, driven in-process.
//!
//! The same [`OnlineDriver`] that backs `hansim serve` is an ordinary
//! library type: this example streams a day of telemetry into a running
//! simulation event by event, queries it over the text protocol (no
//! socket needed — [`respond`] is just a function), snapshots the
//! service mid-window, "kills" it, restores a fresh driver from the
//! snapshot bytes, and shows that the restored run finishes
//! bit-identical to the uninterrupted one.
//!
//! Run with: `cargo run --release --example online_service`

use smart_han::core::online::protocol::respond;
use smart_han::prelude::*;

/// Telemetry as it would arrive over the wire: two appliance arrivals,
/// a feeder cap tightening at minute 6, an early manual switch-off.
const TELEMETRY: &str = "arrive:3@2; arrive:5@4; cap:10@6; done:3@8";

fn base() -> Result<HanSimulation, ScenarioError> {
    let config = SimulationConfig {
        fleet: FleetSpec::paper(),
        duration: SimDuration::from_mins(30),
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::Coordinated(PlanConfig::default()),
        cp: CpModel::Ideal,
        seed: 7,
    };
    HanSimulation::new(config, Vec::new())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A service around an empty scenario: every request the fleet
    //    will see arrives online, through ingest.
    let mut online = OnlineDriver::new(base()?);
    let ingested = online.ingest_script(TELEMETRY)?;
    println!("ingested {ingested} telemetry events up front");

    // 2. Drive it with protocol lines, exactly what `hansim serve`
    //    speaks over TCP.
    for line in ["STATUS", "SCHEDULE 3", "FEEDER"] {
        println!("> {line}\n< {}", respond(&mut online, line).line);
    }

    // 3. Advance half the window and snapshot — the `HANSRV01` bytes
    //    that `--checkpoint-every` writes atomically on cadence.
    let half = online.total_rounds() / 2;
    online.advance_to(half);
    let snapshot = online.snapshot();
    println!("\nsnapshot at round {half}: {} bytes", snapshot.len());
    for line in ["STATUS", "FEEDER"] {
        println!("> {line}\n< {}", respond(&mut online, line).line);
    }

    // 4. The uninterrupted run finishes the window...
    online.run_to_end();
    let uninterrupted = online.into_outcome();

    // 5. ...and so does a fresh driver restored from the snapshot (the
    //    base scenario plus the snapshot bytes are all it needs).
    let mut restored = OnlineDriver::restore(base()?, &snapshot)?;
    println!("restored driver resumes at round {}", restored.next_round());
    restored.run_to_end();
    let resumed = restored.into_outcome();

    println!(
        "\nuninterrupted digest {:016x}, misses {}, energy {:.3} kWh",
        uninterrupted.schedule_digest, uninterrupted.deadline_misses, uninterrupted.energy_kwh
    );
    println!(
        "restored      digest {:016x}, misses {}, energy {:.3} kWh",
        resumed.schedule_digest, resumed.deadline_misses, resumed.energy_kwh
    );
    assert_eq!(uninterrupted.schedule_digest, resumed.schedule_digest);
    assert_eq!(uninterrupted.trace.points(), resumed.trace.points());
    assert_eq!(
        uninterrupted.energy_kwh.to_bits(),
        resumed.energy_kwh.to_bits()
    );
    println!("kill/restore is bit-identical to never having stopped");
    Ok(())
}
