//! Differential property battery of the multi-process city runner.
//!
//! The cross-process half of the city contract, pinned property by
//! property on random heterogeneous cities (the same generator as the
//! in-process battery: 1–4 feeders × 1–3 homes, mixed templates, the
//! three CP families, optional fault plans):
//!
//! 1. **Process boundary ≡ in-process.** The `CityReport` assembled
//!    from worker streams over real OS pipes is `PartialEq`-identical
//!    to in-process `City::run` — every feeder aggregate, substation
//!    summary, per-home digest, and f64 sample — and **invariant in the
//!    worker count** (W ∈ {1, 2, 4}).
//! 2. **No partial results, ever.** A worker stream truncated at *any*
//!    byte offset produces a typed `WorkerError` from the supervisor —
//!    never a report, never a panic, never a hang (the battery's own
//!    deadline enforces the last).
//! 3. **Observability coheres.** The supervisor's frame counter equals
//!    the feeder count, the worker gauge equals the fleet size, and the
//!    city round counter matches the report — and observation never
//!    perturbs the report.
//!
//! The workers here run [`mp::serve_worker`] in threads over
//! [`std::io::pipe`] — the identical protocol code the re-exec'd
//! `hansim city-worker` children run, minus the exec, which keeps the
//! battery fast enough to quantify over random cities.

use han_core::city::mp::{self, MpOptions, WorkerConnection, WorkerError, WorkerTask};
use han_core::city::{City, CitySpec};
use han_core::cp::CpModel;
use han_core::fault::{FaultEvent, FaultPlan};
use han_obs::{Counter, Gauge, Obs, ObsConfig, ObsSink};
use han_sim::time::{SimDuration, SimTime};
use han_workload::scenario::Scenario;
use proptest::prelude::*;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Horizon of every generated home (each case runs several full
/// two-strategy city simulations).
const MINUTES: u64 = 24;

/// Generous read deadline: pipe workers stream within milliseconds, so
/// this only bounds a genuine supervisor hang.
const DEADLINE: Duration = Duration::from_secs(120);

fn template(devices: usize, rate_per_hour: f64) -> Scenario {
    Scenario::builder("prop city mp home")
        .class(han_workload::fleet::DeviceClass::paper(devices))
        .poisson(rate_per_hour)
        .duration(SimDuration::from_mins(MINUTES))
        .build()
        .expect("valid scenario")
}

fn cp_for(pick: u8) -> CpModel {
    match pick % 3 {
        0 => CpModel::Ideal,
        1 => CpModel::LossyRound {
            miss_probability: 0.2,
        },
        _ => CpModel::paper_packet(11),
    }
}

fn faults_for(active: bool, node: usize, down_min: u64, outage_min: u64) -> FaultPlan {
    if !active {
        return FaultPlan::empty();
    }
    FaultPlan::from_events(vec![
        FaultEvent::NodeDown {
            at: SimTime::from_mins(down_min),
            node,
        },
        FaultEvent::NodeUp {
            at: SimTime::from_mins(down_min + 8),
            node,
        },
        FaultEvent::CpOutage {
            from: SimTime::from_mins(outage_min),
            until: SimTime::from_mins(outage_min + 3),
        },
    ])
    .expect("valid plan")
}

prop_compose! {
    /// The in-process battery's city generator, verbatim: the two
    /// suites must quantify over the same population for "mp ≡
    /// in-process" to mean anything.
    fn arb_city()(
        feeders in 1usize..5,
        homes_per_feeder in 1usize..3,
        mix in prop::collection::vec((3usize..5, 4u32..20), 1..4),
        cp_pick in 0u8..3,
        seed in 0u64..1_000,
        faulted in any::<bool>(),
        fault_node in 0usize..3,
        down_min in 2u64..12,
        outage_min in 2u64..18,
    ) -> CitySpec {
        let templates = mix
            .into_iter()
            .map(|(devices, rate)| template(devices, f64::from(rate)))
            .collect();
        CitySpec {
            templates,
            ..CitySpec::uniform("prop city mp", &template(3, 6.0), cp_for(cp_pick), feeders, homes_per_feeder)
        }
        .with_seed(seed)
        .with_faults(faults_for(faulted, fault_node, down_min, outage_min))
    }
}

/// A launcher that runs the real worker entry point in a thread over an
/// OS pipe — the process transport minus the exec.
fn pipe_launcher(spec: CitySpec) -> impl FnMut(&WorkerTask) -> Result<WorkerConnection, String> {
    move |task| {
        let (reader, mut writer) = std::io::pipe().map_err(|e| e.to_string())?;
        let spec = spec.clone();
        let (worker, workers) = (task.worker, task.workers);
        std::thread::spawn(move || {
            let _ = mp::serve_worker(&spec, worker, workers, &mut writer);
        });
        Ok(WorkerConnection::new(reader))
    }
}

/// A launcher that replays each worker's exact stream cut off after
/// `keep` bytes (clamped per worker), then hangs up.
fn truncating_launcher(
    spec: CitySpec,
    keep: usize,
) -> impl FnMut(&WorkerTask) -> Result<WorkerConnection, String> {
    move |task| {
        let mut full = Vec::new();
        mp::serve_worker(&spec, task.worker, task.workers, &mut full).map_err(|e| e.to_string())?;
        let cut = keep.min(full.len().saturating_sub(1));
        let (reader, mut writer) = std::io::pipe().map_err(|e| e.to_string())?;
        std::thread::spawn(move || {
            let _ = writer.write_all(&full[..cut]);
        });
        Ok(WorkerConnection::new(reader))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 3 } else { 16 }))]

    /// Property 1: the multi-process report equals in-process `run` and
    /// is invariant in the worker count.
    #[test]
    fn mp_report_equals_in_process_for_every_worker_count(spec in arb_city()) {
        let in_process = City::new(spec.clone()).expect("valid").run().expect("runs");
        let mut seen = Vec::new();
        for workers in [1usize, 2, 4] {
            let w = workers.min(spec.feeders);
            if seen.contains(&w) {
                continue; // a narrow city clamps 2 and 4 to the same W
            }
            seen.push(w);
            let mut launch = pipe_launcher(spec.clone());
            let (report, stats) = mp::run_city_mp(
                &spec,
                &MpOptions::new(w).with_deadline(DEADLINE),
                &Obs::off(),
                &mut launch,
            )
            .expect("fleet runs");
            prop_assert_eq!(
                &report, &in_process,
                "report changed between in-process and {} worker(s)", w
            );
            prop_assert_eq!(stats.frames as usize, spec.feeders);
            prop_assert_eq!(stats.workers, w);
            prop_assert_eq!(stats.restarts, 0);
        }
    }

    /// Property 2: a stream cut at any byte offset is a typed error —
    /// no report, no panic, no hang.
    #[test]
    fn truncated_worker_stream_is_always_a_typed_error(
        spec in arb_city(),
        keep in 0usize..100_000,
    ) {
        let workers = 2usize.min(spec.feeders);
        let mut launch = truncating_launcher(spec.clone(), keep);
        let err = mp::run_city_mp(
            &spec,
            &MpOptions::new(workers).with_deadline(DEADLINE),
            &Obs::off(),
            &mut launch,
        )
        .expect_err("a truncated stream must never yield a report");
        prop_assert!(
            matches!(
                err,
                WorkerError::Died { .. } | WorkerError::Wire { .. }
            ),
            "unexpected error class for cut at {}: {:?}", keep, err
        );
    }

    /// Property 3: supervisor metrics cohere with the report, and
    /// observing changes nothing.
    #[test]
    fn mp_obs_counters_cohere_and_do_not_perturb(spec in arb_city()) {
        let workers = 2usize.min(spec.feeders);
        let blind = {
            let mut launch = pipe_launcher(spec.clone());
            mp::run_city_mp(
                &spec,
                &MpOptions::new(workers).with_deadline(DEADLINE),
                &Obs::off(),
                &mut launch,
            )
            .expect("fleet runs")
            .0
        };
        let sink = Arc::new(ObsSink::new(ObsConfig::default()));
        let obs = Obs::new(sink.clone());
        let mut launch = pipe_launcher(spec.clone());
        let (observed, stats) = mp::run_city_mp(
            &spec,
            &MpOptions::new(workers).with_deadline(DEADLINE),
            &obs,
            &mut launch,
        )
        .expect("fleet runs");
        prop_assert_eq!(&observed, &blind, "observation perturbed the report");
        let r = sink.registry();
        prop_assert_eq!(r.counter(Counter::CityMpFrames), spec.feeders as u64);
        prop_assert_eq!(r.counter(Counter::CityMpFrames), stats.frames);
        prop_assert_eq!(r.counter(Counter::CityMpPayloadBytes), stats.payload_bytes);
        prop_assert!(stats.payload_bytes > 0, "frames cannot be empty");
        prop_assert_eq!(r.counter(Counter::CityMpRestarts), 0);
        prop_assert_eq!(r.gauge(Gauge::CityMpWorkers), workers as u64);
        prop_assert_eq!(r.counter(Counter::CityRounds), observed.rounds);
        let imbalance = r.gauge(Gauge::CityMpWallImbalancePermille);
        prop_assert!(
            (1..=1000).contains(&imbalance),
            "wall imbalance permille out of range: {}", imbalance
        );
    }
}
