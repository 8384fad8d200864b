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
//!    bit-identical to never having stopped, on the ideal, lossy and
//!    packet-level CPs.
//! 3. **Cap injection ≡ merged-profile batch** — injecting a cap change
//!    mid-run equals batch-running under the merged step profile, on
//!    the same three CPs. The planners keep no plan between rounds, so
//!    the change must reach every planner before the next round plans,
//!    including planners that hold different views under loss.
//!
//! Case counts scale with the build profile: the debug run (tier-1
//! `cargo test`) keeps a quick battery, the dedicated release CI job
//! runs the full one.

use han_core::algorithm::PlanConfig;
use han_core::cp::CpModel;
use han_core::fault::FaultPlan;
use han_core::online::OnlineDriver;
use han_core::simulation::{
    HanSimulation, SimulationConfig, SimulationOutcome, Strategy as SimStrategy,
};
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

/// Window of the ideal and lossy cases, minutes.
const MINUTES: std::ops::Range<u64> = 20..40;

/// Window of the packet cases, minutes: the packet CP floods the whole
/// 26-node deployment every round, which costs about 50 times a lossy
/// round and 500 times an ideal one.
const PACKET_MINUTES: std::ops::Range<u64> = 3..6;

fn config(
    devices: usize,
    minutes: u64,
    seed: u64,
    cap: Option<PowerCapProfile>,
    cp: CpModel,
) -> SimulationConfig {
    SimulationConfig {
        fleet: FleetSpec::new(vec![DeviceClass::paper(devices)]).expect("non-empty fleet"),
        duration: SimDuration::from_mins(minutes),
        round_period: SimDuration::from_secs(2),
        strategy: SimStrategy::Coordinated(PlanConfig {
            admission_cap: cap,
            ..PlanConfig::default()
        }),
        cp,
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
    stream_into(
        HanSimulation::new(config, Vec::new()).expect("valid config"),
        events,
    )
}

/// [`run_streamed`] into an already configured simulation.
fn stream_into(sim: HanSimulation, events: &[TelemetryEvent]) -> SimulationOutcome {
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
        strategy: SimStrategy::Uncoordinated,
        ..config(6, 20, 3, None, CpModel::Ideal)
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
    /// A random online scenario: a small paper-class fleet, a window
    /// drawn from `window` (minutes), and one request per entry landing
    /// in the first two-thirds of the window.
    fn arb_scenario(window: std::ops::Range<u64>)(
        devices in 3usize..10,
        minutes in window.clone(),
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

/// `arb_scenario` on a random CP: the ideal plane, whole-round loss, or
/// the packet-level MiniCast deployment (channel seeded by the scenario
/// seed, as `hansim --cp packet` does), the last on a short window.
fn arb_cp_scenario() -> impl Strategy<Value = (CpModel, (usize, u64, u64, Vec<Request>))> {
    prop_oneof![
        arb_scenario(MINUTES).prop_map(|s| (CpModel::Ideal, s)),
        (0.05f64..0.5, arb_scenario(MINUTES)).prop_map(|(p, s)| (
            CpModel::LossyRound {
                miss_probability: p
            },
            s
        )),
        arb_scenario(PACKET_MINUTES).prop_map(|s| (CpModel::paper_packet(s.2), s)),
    ]
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
    fn streamed_arrivals_match_batch(scenario in arb_scenario(MINUTES)) {
        let (devices, minutes, seed, requests) = scenario;
        let config = || config(devices, minutes, seed, None, CpModel::Ideal);
        let batch = run_batch(config(), requests.clone());
        let streamed = run_streamed(config(), &arrivals(&requests));
        assert_same(&batch, &streamed, "streamed vs batch");
    }

    /// Kill the service at a random round, restore from the snapshot
    /// bytes, finish the window: every field matches the uninterrupted
    /// streamed run.
    #[test]
    fn kill_restore_resume_is_bit_identical(
        scenario in arb_cp_scenario(),
        kill_frac in 0.05f64..0.95,
    ) {
        let (cp, (devices, minutes, seed, requests)) = scenario;
        let config = || config(devices, minutes, seed, None, cp.clone());
        let events = arrivals(&requests);
        let uninterrupted = run_streamed(config(), &events);

        let sim = HanSimulation::new(config(), Vec::new()).expect("valid config");
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

        let base = HanSimulation::new(config(), Vec::new()).expect("valid config");
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
        scenario in arb_scenario(MINUTES),
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
            config(devices, minutes, seed, None, CpModel::Ideal),
            sorted,
        ).expect("valid config");
        sim.set_faults(FaultPlan::parse(&spec).expect("valid plan"))
            .expect("plan fits the fleet");
        let batch = sim.run();

        let mut events = arrivals(&requests);
        events.extend(TelemetryEvent::parse_script(&spec).expect("valid telemetry"));
        let streamed = run_streamed(
            config(devices, minutes, seed, None, CpModel::Ideal),
            &events,
        );
        assert_same(&batch, &streamed, "churn vs batch fault plan");
    }

    /// Injecting a cap change online equals batch-running under the
    /// merged step profile: the change reaches every planner, whatever
    /// view it holds, from its absorbing round on, and no earlier.
    #[test]
    fn cap_injection_equals_merged_profile_batch(
        scenario in arb_cp_scenario(),
        base_cap_deci in 15u64..60,
        new_cap_deci in prop::option::of(10u64..50),
        change_frac in 0.1f64..0.75,
    ) {
        let (cp, (devices, minutes, seed, requests)) = scenario;
        let base_kw = base_cap_deci as f64 / 10.0;
        let change_at = SimTime::from_secs((minutes as f64 * 60.0 * change_frac) as u64);
        let new_kw = new_cap_deci.map(|d| d as f64 / 10.0);
        let merged = PowerCapProfile::from_steps(vec![
            (SimTime::ZERO, base_kw),
            (change_at, new_kw.unwrap_or(f64::INFINITY)),
        ]).expect("valid profile");

        let batch = run_batch(
            config(devices, minutes, seed, Some(merged), cp.clone()),
            requests.clone(),
        );

        let mut events = arrivals(&requests);
        events.push(TelemetryEvent::CapChange { at: change_at, cap_kw: new_kw });
        let base = || config(
            devices,
            minutes,
            seed,
            Some(PowerCapProfile::constant(base_kw).expect("valid cap")),
            cp.clone(),
        );
        let streamed = run_streamed(base(), &events);
        assert_same(&batch, &streamed, "cap injection vs merged batch");
        // The naive reference plane plans through the same planners, so
        // the injected cap must reach it too.
        let mut reference = HanSimulation::new(base(), Vec::new()).expect("valid config");
        reference.set_reference_planning(true);
        let streamed_reference = stream_into(reference, &events);
        assert_same(&batch, &streamed_reference, "cap injection on the reference plane");
    }
}

/// A node whose view holds a dead peer's aged record plans on a
/// TTL-filtered copy of its view. An injected cap must reach that path
/// too: ten devices, node 0 down from minute 1 to 40 with a one-round
/// TTL, a 6 kW cap at 0 tightened to 1 kW at minute 2, and one arrival
/// every 110 s from 150 s.
#[test]
fn cap_injection_reaches_ttl_filtered_planners() {
    const SCRIPT_CAPS: &str = "cap:6@0; cap:1@2";
    let faults = "down:0@1; up:0@40";
    let requests: Vec<Request> = (0..20u64)
        .map(|k| Request::new(DeviceId((k % 10) as u32), SimTime::from_secs(150 + 110 * k)))
        .collect();
    let merged =
        PowerCapProfile::from_steps(vec![(SimTime::ZERO, 6.0), (SimTime::from_mins(2), 1.0)])
            .expect("valid profile");
    let build = |cap: Option<PowerCapProfile>, cp: &CpModel, requests: Vec<Request>| {
        let mut sim =
            HanSimulation::new(config(10, 60, 5, cap, cp.clone()), requests).expect("valid config");
        sim.set_faults(FaultPlan::parse(faults).expect("valid plan"))
            .expect("plan fits the fleet");
        sim.set_staleness_ttl(Some(1));
        sim
    };
    for (cp, digest) in [
        (CpModel::Ideal, 0x09a4_7fc2_ddcf_a316_u64),
        (
            CpModel::LossyRound {
                miss_probability: 0.4,
            },
            0xe52e_bc22_1521_8be1,
        ),
    ] {
        let batch = build(Some(merged.clone()), &cp, requests.clone()).run();
        let mut events = TelemetryEvent::parse_script(SCRIPT_CAPS).expect("valid telemetry");
        events.extend(arrivals(&requests));
        let streamed = stream_into(build(None, &cp, Vec::new()), &events);
        assert_same(
            &batch,
            &streamed,
            &format!("{cp:?}: streamed caps vs merged batch"),
        );
        assert_eq!(
            streamed.schedule_digest, digest,
            "{cp:?}: {:016x}",
            streamed.schedule_digest
        );
    }
}
