//! Integration tests of the synchronous-transmission stack driving the
//! scheduler: packet-level MiniCast on the FlockLab-like testbed.

use smart_han::prelude::*;
use smart_han::st::item::{Item, ItemStore};
use smart_han::st::minicast::run_round;
use smart_han::st::DisseminationStats;
use smart_han::workload::burst;

fn packet_config(strategy: Strategy, minutes: u64, channel_seed: u64) -> SimulationConfig {
    SimulationConfig {
        fleet: FleetSpec::paper(),
        duration: SimDuration::from_mins(minutes),
        round_period: SimDuration::from_secs(2),
        strategy,
        cp: CpModel::paper_packet(channel_seed),
        seed: channel_seed,
    }
}

#[test]
fn packet_level_cp_sustains_the_scheduler() {
    let requests = PoissonArrivals::new(30.0, 26).generate(SimDuration::from_mins(20), 3);
    let outcome = HanSimulation::new(packet_config(Strategy::coordinated(), 20, 3), requests)
        .unwrap()
        .run();
    assert_eq!(
        outcome.deadline_misses, 0,
        "obligations must survive the real CP"
    );
    assert!(
        outcome.cp.delivery_rate() > 0.95,
        "record delivery {} too low",
        outcome.cp.delivery_rate()
    );
    let d = outcome.cp.dissemination.as_ref().expect("packet stats");
    assert!(
        d.mean_reliability() > 0.95,
        "MiniCast reliability {}",
        d.mean_reliability()
    );
    // The protocol must fit its 2-second period.
    let duty = d.duty_cycle(SimDuration::from_secs(2));
    assert!(
        duty < 1.0,
        "radio duty cycle {duty} exceeds the round period"
    );
}

#[test]
fn packet_level_burst_still_staggers() {
    let requests = burst(SimTime::from_mins(1), 8);
    let outcome = HanSimulation::new(packet_config(Strategy::coordinated(), 40, 5), requests)
        .unwrap()
        .run();
    let end = SimTime::ZERO + SimDuration::from_mins(40);
    let minute = SimDuration::from_mins(1);
    let peak = Summary::of(&outcome.trace.sample(SimTime::ZERO, end, minute)).peak;
    assert!(
        peak <= 5.0,
        "burst of 8 should stay near 4 kW over the real CP, got {peak}"
    );
    assert_eq!(outcome.deadline_misses, 0);
}

#[test]
fn minicast_reliability_across_channel_realizations() {
    // Raw protocol characterization: 10 rounds on each of 5 shadowing
    // realizations must disseminate essentially everything.
    let mut worst = f64::INFINITY;
    for channel_seed in 0..5 {
        let topo = smart_han::net::flocklab::flocklab26(channel_seed);
        let rssi = topo.rssi_matrix();
        let mut stores = vec![ItemStore::new(); 26];
        for (i, store) in stores.iter_mut().enumerate() {
            store.merge(&Item::new(NodeId(i as u32), 1, vec![0u8; 23]));
        }
        let mut stats = DisseminationStats::new();
        let mut rng = DetRng::for_stream(channel_seed, "st-integration");
        for round in 0..10 {
            let report = run_round(
                &rssi,
                &mut stores,
                NodeId(0),
                &StConfig::default(),
                round,
                &mut rng,
            );
            stats.record(&report);
        }
        worst = worst.min(stats.mean_reliability());
    }
    assert!(
        worst > 0.97,
        "dissemination should be near-perfect on every realization, worst {worst}"
    );
}

#[test]
fn desynchronized_network_degrades_gracefully() {
    // Crank transmit desynchronization: reliability drops but the protocol
    // still delivers most records (capture effect), and the scheduler's
    // local guards keep obligations intact.
    let st = StConfig {
        desync_probability: 0.1,
        ..StConfig::default()
    };
    let config = SimulationConfig {
        fleet: FleetSpec::paper(),
        duration: SimDuration::from_mins(15),
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::coordinated(),
        cp: CpModel::Packet {
            st,
            topology: smart_han::net::flocklab::flocklab26(9),
        },
        seed: 9,
    };
    let requests = PoissonArrivals::new(30.0, 26).generate(SimDuration::from_mins(15), 9);
    let outcome = HanSimulation::new(config, requests).unwrap().run();
    assert_eq!(outcome.deadline_misses, 0);
    let d = outcome.cp.dissemination.as_ref().expect("packet stats");
    assert!(
        d.mean_reliability() > 0.5,
        "even a badly desynchronized network should carry most data, got {}",
        d.mean_reliability()
    );
}
