//! Property tests of the observability plane (`han-obs`).
//!
//! Three contracts from the instrumentation design are pinned here:
//!
//! 1. **Observational inertness** — attaching a full [`ObsSink`]
//!    (registry + flight recorder, with and without span tracing) is
//!    bit-identical to running uninstrumented: same digest, trace, CP
//!    statistics and divergent-round count, under every CP model family
//!    (ideal, lossy, packet-level). Observation reads simulation state;
//!    it never writes it.
//! 2. **Counter coherence** — the registry a run leaves behind is
//!    internally consistent: the planner runs at least once per round
//!    and at most once per node per round, CP deliveries and drops
//!    partition CP attempts exactly, the round
//!    counter matches the outcome, and the pool peak dominates the live
//!    gauge.
//! 3. **City coherence** — a sharded city run publishes per-shard round
//!    counters that sum exactly to the city round counter, its shard
//!    gauges stay in range, and attaching a sink never changes the
//!    report.
//!
//! Case counts scale with the build profile: the debug run (tier-1
//! `cargo test`) keeps a quick battery, the dedicated release CI job
//! runs the full one.

use std::sync::Arc;

use han_core::cp::CpModel;
use han_core::fault::{FaultEvent, FaultPlan};
use han_core::simulation::{
    HanSimulation, SimulationConfig, SimulationOutcome, Strategy as SimStrategy,
};
use han_device::appliance::{ApplianceKind, DeviceId};
use han_device::duty_cycle::DutyCycleConstraints;
use han_device::request::Request;
use han_obs::{Counter, Gauge, Obs, ObsConfig, ObsSink};
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::{DeviceClass, FleetSpec};
use proptest::prelude::*;

/// Debug runs (tier-1) keep the battery quick; the release CI job runs
/// the full width.
const CASES: u32 = if cfg!(debug_assertions) { 6 } else { 24 };

/// Horizon of every run in this file, minutes.
const MINUTES: u64 = 30;

/// Type-2 kinds a class can be drawn as.
const TYPE2_KINDS: [ApplianceKind; 4] = [
    ApplianceKind::AirConditioner,
    ApplianceKind::RoomHeater,
    ApplianceKind::WaterHeater,
    ApplianceKind::Fridge,
];

prop_compose! {
    /// A random heterogeneous fleet — 3..8 devices split into up to two
    /// classes — plus up to one request per device inside the first 12
    /// minutes, so windows are in flight while the run is observed.
    fn arb_fleet_workload()(
        devices in 3usize..8,
        split in 1usize..8,
        kinds in prop::collection::vec(0..TYPE2_KINDS.len(), 2..3),
        power_deci in prop::collection::vec(1u32..40, 2..3),
        dcd_mins in prop::collection::vec(5u64..12, 2..3),
        specs in prop::collection::btree_map(0u32..8, 0u64..12, 1..8)
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

/// The three CP model families the inertness contract quantifies over.
fn cp_model(idx: usize, miss_milli: u64, seed: u64) -> CpModel {
    match idx % 3 {
        0 => CpModel::Ideal,
        1 => CpModel::LossyRecord {
            miss_probability: miss_milli as f64 / 1000.0,
        },
        _ => CpModel::paper_packet(seed),
    }
}

/// A small churn + outage plan so fault-subsystem hooks (flight events,
/// outage counters) are on the observed path too.
fn small_fault_plan(devices: usize) -> FaultPlan {
    FaultPlan::from_events(vec![
        FaultEvent::NodeDown {
            at: SimTime::from_mins(4),
            node: 1 % devices,
        },
        FaultEvent::NodeUp {
            at: SimTime::from_mins(9),
            node: 1 % devices,
        },
        FaultEvent::CpOutage {
            from: SimTime::from_mins(12),
            until: SimTime::from_mins(14),
        },
    ])
    .expect("windows are non-empty")
}

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

/// Runs the identical configuration with a full sink attached.
fn run_observed(
    fleet: FleetSpec,
    requests: Vec<Request>,
    cp: CpModel,
    seed: u64,
    faults: &FaultPlan,
    trace_spans: bool,
) -> (SimulationOutcome, Arc<ObsSink>) {
    let sink = Arc::new(ObsSink::new(ObsConfig {
        trace_spans,
        ..ObsConfig::default()
    }));
    let mut sim = build(fleet, requests, cp, seed, faults);
    sim.set_observer(Obs::new(sink.clone()));
    (sim.run(), sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// (1) Instrumented ≡ uninstrumented, under every CP model family,
    /// with and without span tracing.
    #[test]
    fn instrumentation_is_observationally_inert(
        workload in arb_fleet_workload(),
        cp_idx in 0usize..3,
        miss_milli in 0u64..500,
        trace_spans in any::<bool>(),
        with_faults in any::<bool>(),
        seed in any::<u64>()
    ) {
        let (fleet, requests) = workload;
        let cp = cp_model(cp_idx, miss_milli, seed);
        let faults = if with_faults {
            small_fault_plan(fleet.device_count())
        } else {
            FaultPlan::empty()
        };
        let plain = build(
            fleet.clone(),
            requests.clone(),
            cp.clone(),
            seed,
            &faults,
        )
        .run();
        let (observed, _sink) = run_observed(fleet, requests, cp, seed, &faults, trace_spans);
        prop_assert_eq!(
            observed.schedule_digest, plain.schedule_digest,
            "observation must never perturb the schedule"
        );
        prop_assert_eq!(&observed.trace, &plain.trace);
        prop_assert_eq!(observed.divergent_rounds, plain.divergent_rounds);
        prop_assert_eq!(observed.deadline_misses, plain.deadline_misses);
        prop_assert_eq!(observed.windows_served, plain.windows_served);
        prop_assert_eq!(
            format!("{:?}", observed.cp),
            format!("{:?}", plain.cp),
            "CP statistics must be untouched"
        );
        prop_assert_eq!(&observed.resilience, &plain.resilience);
    }

    /// (2) The registry a run leaves behind is internally consistent.
    #[test]
    fn registry_counters_are_coherent(
        workload in arb_fleet_workload(),
        cp_idx in 0usize..3,
        miss_milli in 0u64..500,
        seed in any::<u64>()
    ) {
        let (fleet, requests) = workload;
        let nodes = fleet.device_count() as u64;
        let cp = cp_model(cp_idx, miss_milli, seed);
        let faults = small_fault_plan(fleet.device_count());
        let (outcome, sink) = run_observed(fleet, requests, cp, seed, &faults, false);
        let r = sink.registry();

        // The grouped plane plans once per distinct (view, level) a round.
        let invocations = r.counter(Counter::PlannerInvocations);
        prop_assert!(
            (outcome.rounds..=outcome.rounds * nodes).contains(&invocations),
            "{invocations} planner invocations over {} rounds of {nodes} nodes",
            outcome.rounds
        );

        let attempted = r.counter(Counter::CpAttemptedRecords);
        let delivered = r.counter(Counter::CpDeliveredRecords);
        let dropped = r.counter(Counter::CpDroppedRecords);
        prop_assert_eq!(
            delivered + dropped,
            attempted,
            "deliveries and drops must partition attempts exactly"
        );
        prop_assert!(attempted > 0, "a multi-device run exchanges records");

        prop_assert_eq!(r.counter(Counter::RoundsExecuted), outcome.rounds);
        prop_assert_eq!(r.counter(Counter::DivergentRounds), outcome.divergent_rounds);
        prop_assert!(
            r.gauge(Gauge::PoolPeakViews) >= r.gauge(Gauge::PoolLiveViews),
            "the peak gauge dominates the live gauge"
        );
        prop_assert!(
            r.counter(Counter::CpOutageRounds) > 0,
            "the scripted outage window covers whole rounds"
        );
    }
}

/// City-level battery: cheaper width — every case runs a full city twice
/// (observed and plain).
const CITY_CASES: u32 = if cfg!(debug_assertions) { 3 } else { 8 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CITY_CASES))]

    /// (3) City shard counters are coherent — the sum of the per-shard
    /// round increments equals the city round counter, the shard-homes
    /// gauge and imbalance metric are in range — and attaching a sink to
    /// a [`han_core::city::City`] run never changes its report.
    #[test]
    fn city_shard_counters_are_coherent_and_inert(
        feeders in 1usize..4,
        homes_per_feeder in 1usize..3,
        shards in 1usize..3,
        cp_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        use han_core::city::{City, CitySpec};
        use han_workload::scenario::Scenario;

        let template = Scenario::builder("obs city home")
            .class(DeviceClass::paper(3))
            .poisson(8.0)
            .duration(SimDuration::from_mins(20))
            .build()
            .expect("valid scenario");
        let cp = cp_model(cp_idx, 200, seed);
        let spec = CitySpec::uniform("obs city", &template, cp, feeders, homes_per_feeder)
            .with_seed(seed)
            .with_shards(shards.min(feeders));

        let plain = City::new(spec.clone()).expect("valid").run().expect("runs");

        let sink = Arc::new(ObsSink::new(ObsConfig::default()));
        let mut city = City::new(spec).expect("valid");
        city.set_observer(Obs::new(sink.clone()));
        let observed = city.run().expect("runs");

        prop_assert_eq!(&observed, &plain, "observation must not perturb the city report");

        let r = sink.registry();
        prop_assert_eq!(
            r.counter(Counter::CityShardRounds),
            r.counter(Counter::CityRounds),
            "the per-shard round increments must sum to the city total"
        );
        prop_assert_eq!(r.counter(Counter::CityRounds), plain.rounds);
        let shard_homes = r.gauge(Gauge::CityShardHomes);
        prop_assert!(shard_homes >= 1);
        prop_assert!(shard_homes <= plain.homes as u64);
        let permille = r.gauge(Gauge::CityShardImbalancePermille);
        prop_assert!(permille >= 1, "imbalance gauge must be set");
        prop_assert!(permille <= 1000, "1000 is perfect balance");
    }
}
