//! Differential property tests of the online service mode.
//!
//! The online driver ([`han_core::online`]) turns the batch round loop
//! into a long-lived, externally drivable service. Its headline
//! guarantees are **test-enforced here**:
//!
//! 1. **Streaming ≡ batch** — a workload ingested event by event while
//!    the simulation runs (each arrival injected shortly before its
//!    absorbing round) produces the same order-sensitive
//!    `schedule_digest`, load trace and service metrics as a batch run
//!    whose trace carried the requests from round zero.
//! 2. **Kill/restore ≡ uninterrupted** — snapshotting the service at a
//!    random round (`HANSRV01` bytes), rebuilding from the base
//!    scenario and the snapshot, and running the rest of the window is
//!    bit-identical to never having stopped.
//! 3. **Cap injection ≡ merged-profile batch** — injecting a cap change
//!    mid-run equals batch-running under the merged step profile; the
//!    change only invalidates memoized plans whose validity horizon it
//!    crosses, so the equality also pins the incremental re-planning
//!    path.
//!
//! Case counts scale with the build profile: the debug run (tier-1
//! `cargo test`) keeps a quick battery, the dedicated release CI job
//! runs the full one.

use han_core::algorithm::PlanConfig;
use han_core::cp::CpModel;
use han_core::fault::FaultPlan;
use han_core::online::OnlineDriver;
use han_core::simulation::{HanSimulation, SimulationConfig, SimulationOutcome, Strategy};
use han_device::appliance::DeviceId;
use han_device::request::Request;
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::{DeviceClass, FleetSpec};
use han_workload::signal::PowerCapProfile;
use han_workload::telemetry::TelemetryEvent;
use proptest::prelude::*;

/// Debug runs (tier-1) keep the battery quick; the release CI job runs
/// the full width.
const CASES: u32 = if cfg!(debug_assertions) { 4 } else { 16 };

const PERIOD_US: u64 = 2_000_000;

fn config(
    devices: usize,
    minutes: u64,
    seed: u64,
    cap: Option<PowerCapProfile>,
) -> SimulationConfig {
    SimulationConfig {
        fleet: FleetSpec::new(vec![DeviceClass::paper(devices)]).expect("non-empty fleet"),
        duration: SimDuration::from_mins(minutes),
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::Coordinated(PlanConfig {
            admission_cap: cap,
            ..PlanConfig::default()
        }),
        cp: CpModel::Ideal,
        seed,
    }
}

/// Batch reference: the requests in the trace from round zero.
fn run_batch(config: SimulationConfig, mut requests: Vec<Request>) -> SimulationOutcome {
    requests.sort_by_key(|r| (r.arrival, r.device));
    HanSimulation::new(config, requests)
        .expect("valid config")
        .run()
}

/// The round that absorbs an event at `at` (mirrors the ingest rule).
fn absorbing_round(at: SimTime) -> u64 {
    at.as_micros().div_ceil(PERIOD_US)
}

/// Streams `events` into a fresh online driver, injecting each one just
/// before its absorbing round executes, then runs the window out.
fn run_streamed(config: SimulationConfig, events: &[TelemetryEvent]) -> SimulationOutcome {
    let sim = HanSimulation::new(config, Vec::new()).expect("valid config");
    let mut online = OnlineDriver::new(sim);
    let mut ordered: Vec<&TelemetryEvent> = events.iter().collect();
    // Stable by absorbing round: ingest order between equal rounds is
    // preserved, which is what the equality contract requires.
    ordered.sort_by_key(|ev| absorbing_round(ev.effective_at()));
    for ev in ordered {
        online.advance_to(absorbing_round(ev.effective_at()).saturating_sub(1));
        online.ingest(*ev).expect("validated event");
    }
    online.run_to_end();
    online.into_outcome()
}

/// Field-by-field equality of two outcomes.
fn assert_same(a: &SimulationOutcome, b: &SimulationOutcome, what: &str) {
    assert_eq!(a.schedule_digest, b.schedule_digest, "{what}: digest");
    assert_eq!(a.trace.points(), b.trace.points(), "{what}: trace");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds");
    assert_eq!(a.deadline_misses, b.deadline_misses, "{what}: misses");
    assert_eq!(a.windows_served, b.windows_served, "{what}: served");
    assert_eq!(a.refused_early_off, b.refused_early_off, "{what}: refused");
    assert_eq!(a.divergent_rounds, b.divergent_rounds, "{what}: divergent");
    assert_eq!(
        a.requests_delivered, b.requests_delivered,
        "{what}: delivered"
    );
    assert_eq!(
        a.energy_kwh.to_bits(),
        b.energy_kwh.to_bits(),
        "{what}: energy"
    );
}

#[test]
fn uncoordinated_daemon_with_fault_telemetry_restores_identically() {
    // With no CP in use, ingesting a CP fault never fans the Ideal plane
    // out to per-node rows, though a fresh build over the same faults
    // would: restore must take the row shape from the snapshot.
    let config = || SimulationConfig {
        strategy: Strategy::Uncoordinated,
        ..config(6, 20, 3, None)
    };
    let requests = vec![Request::new(DeviceId(1), SimTime::from_secs(90))];
    let run = |kill_round: Option<u64>| {
        let mut online = OnlineDriver::new(
            HanSimulation::new(config(), requests.clone()).expect("valid config"),
        );
        online
            .ingest_script("down:2@1; up:2@9; arrive:4@12")
            .expect("validated events");
        if let Some(round) = kill_round {
            online.advance_to(round);
            let snapshot = online.snapshot();
            let base = HanSimulation::new(config(), requests.clone()).expect("valid config");
            online = OnlineDriver::restore(base, &snapshot).expect("snapshot restores");
        }
        online.run_to_end();
        online.into_outcome()
    };
    assert_same(&run(None), &run(Some(200)), "restored vs uninterrupted");
}

prop_compose! {
    /// A random online scenario: a small paper-class fleet, 20–40
    /// simulated minutes, and one request per entry landing in the
    /// first two-thirds of the window.
    fn arb_scenario()(
        devices in 3usize..10,
        minutes in 20u64..40,
        seed in 0u64..1_000,
        specs in prop::collection::vec((0u32..10, 30u64..1_500), 1..8),
    ) -> (usize, u64, u64, Vec<Request>) {
        let requests: Vec<Request> = specs
            .iter()
            .map(|&(d, secs)| Request::new(
                DeviceId(d % devices as u32),
                SimTime::from_secs(secs.min(minutes * 40)),
            ))
            .collect();
        (devices, minutes, seed, requests)
    }
}

fn arrivals(requests: &[Request]) -> Vec<TelemetryEvent> {
    requests
        .iter()
        .map(|r| TelemetryEvent::Arrival {
            device: r.device,
            at: r.arrival,
            windows: r.windows,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Streaming a workload online reproduces the batch run bit for
    /// bit.
    #[test]
    fn streamed_arrivals_match_batch(scenario in arb_scenario()) {
        let (devices, minutes, seed, requests) = scenario;
        let batch = run_batch(config(devices, minutes, seed, None), requests.clone());
        let streamed = run_streamed(config(devices, minutes, seed, None), &arrivals(&requests));
        assert_same(&batch, &streamed, "streamed vs batch");
    }

    /// Kill the service at a random round, restore from the snapshot
    /// bytes, finish the window: every field matches the uninterrupted
    /// streamed run.
    #[test]
    fn kill_restore_resume_is_bit_identical(
        scenario in arb_scenario(),
        kill_frac in 0.05f64..0.95,
    ) {
        let (devices, minutes, seed, requests) = scenario;
        let events = arrivals(&requests);
        let uninterrupted = run_streamed(config(devices, minutes, seed, None), &events);

        let sim = HanSimulation::new(
            config(devices, minutes, seed, None),
            Vec::new(),
        ).expect("valid config");
        let mut online = OnlineDriver::new(sim);
        // Everything the killed process had ingested survives in its
        // snapshot log; ingest all up front so the kill loses nothing.
        for ev in &events {
            online.ingest(*ev).expect("validated event");
        }
        let kill_round = ((online.total_rounds() as f64) * kill_frac) as u64;
        online.advance_to(kill_round);
        let snapshot = online.snapshot();
        drop(online); // the kill

        let base = HanSimulation::new(
            config(devices, minutes, seed, None),
            Vec::new(),
        ).expect("valid config");
        let mut restored = OnlineDriver::restore(base, &snapshot).expect("snapshot restores");
        prop_assert_eq!(restored.next_round(), kill_round.min(restored.total_rounds()));
        restored.run_to_end();
        assert_same(&uninterrupted, &restored.into_outcome(), "restored vs uninterrupted");
    }

    /// Streaming node churn online equals batch-running under the
    /// equivalent [`FaultPlan`] — including the lazy mid-run switch of
    /// the Ideal CP from its shared delivery row to per-node rows at
    /// the moment the first fault event arrives.
    #[test]
    fn churn_injection_equals_batch_fault_plan(
        scenario in arb_scenario(),
        node in 0usize..10,
        down_min in 2u64..10,
        down_len in 1u64..8,
    ) {
        let (devices, minutes, seed, requests) = scenario;
        let node = node % devices;
        let up_min = down_min + down_len;
        let spec = format!("down:{node}@{down_min}; up:{node}@{up_min}");

        let mut sorted = requests.clone();
        sorted.sort_by_key(|r| (r.arrival, r.device));
        let mut sim = HanSimulation::new(
            config(devices, minutes, seed, None),
            sorted,
        ).expect("valid config");
        sim.set_faults(FaultPlan::parse(&spec).expect("valid plan"))
            .expect("plan fits the fleet");
        let batch = sim.run();

        let mut events = arrivals(&requests);
        events.extend(TelemetryEvent::parse_script(&spec).expect("valid telemetry"));
        let streamed = run_streamed(
            config(devices, minutes, seed, None),
            &events,
        );
        assert_same(&batch, &streamed, "churn vs batch fault plan");
    }

    /// Injecting a cap change online equals batch-running under the
    /// merged step profile (memoized plans survive up to the change
    /// horizon and no further).
    #[test]
    fn cap_injection_equals_merged_profile_batch(
        scenario in arb_scenario(),
        base_cap_deci in 15u64..60,
        new_cap_deci in prop::option::of(10u64..50),
        change_min in 2u64..15,
    ) {
        let (devices, minutes, seed, requests) = scenario;
        let base_kw = base_cap_deci as f64 / 10.0;
        let change_at = SimTime::from_mins(change_min);
        let new_kw = new_cap_deci.map(|d| d as f64 / 10.0);
        let merged = PowerCapProfile::from_steps(vec![
            (SimTime::ZERO, base_kw),
            (change_at, new_kw.unwrap_or(f64::INFINITY)),
        ]).expect("valid profile");

        let batch = run_batch(
            config(devices, minutes, seed, Some(merged)),
            requests.clone(),
        );

        let mut events = arrivals(&requests);
        events.push(TelemetryEvent::CapChange { at: change_at, cap_kw: new_kw });
        let streamed = run_streamed(
            config(
                devices,
                minutes,
                seed,
                Some(PowerCapProfile::constant(base_kw).expect("valid cap")),
            ),
            &events,
        );
        assert_same(&batch, &streamed, "cap injection vs merged batch");
    }
}
