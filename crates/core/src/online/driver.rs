//! The long-lived simulation driver behind the online service mode.
//!
//! [`OnlineDriver`] wraps the same `Driver` the batch backends run,
//! advancing it round by round over a long-lived process and splicing
//! externally ingested telemetry between rounds. Its contract is the
//! repo-wide one: **streaming a workload online is bit-identical to
//! batch-running the same workload** — same order-sensitive
//! `schedule_digest`, same load trace, same service metrics — because
//! every injected event lands in the exact phase slot a batch trace
//! containing it from round zero would have used (see
//! [`super::ingest`]).
//!
//! Re-planning after an injection needs no bookkeeping: the coordinated
//! planners keep no plan from one round to the next, so an injected cap
//! change (each planner's `set_admission_cap`) reaches the next round's
//! plans the way an arrival or a completion does, through the state that
//! round plans on.
//!
//! # Service snapshots (`HANSRV01`)
//!
//! A batch [`Checkpoint`] fingerprints the *static* request trace and
//! fault plan, but an online run's trace grows as telemetry arrives. A
//! service snapshot therefore carries the full telemetry log alongside
//! the embedded state checkpoint: `HANSRV01` magic, the ingested events
//! as length-prefixed canonical-grammar lines (they round-trip through
//! [`TelemetryEvent::parse`]), then the `HANCKPT1` state blob. Restore
//! replays the log against the base scenario — past arrivals merge into
//! the request trace, fault events re-append to the timeline, cap
//! changes re-fold in ingest order — and the recomputed fingerprint
//! must match the one captured at snapshot time. A daemon killed
//! mid-day and restored from its last auto-checkpoint finishes with a
//! byte-identical report (events ingested *after* that checkpoint are
//! lost by design, exactly like any crash-recovery log cut).

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::fault::FaultEvent;
use crate::simulation::{
    run_span, Driver, HanSimulation, Injection, SimulationConfig, SimulationOutcome, Strategy,
};
use crate::wire::{Dec, Enc};
use han_device::request::Request;
use han_obs::{Counter, Gauge, Hist, Obs, ObsSink, Subsystem};
use han_sim::time::{SimDuration, SimTime};
use han_workload::signal::PowerCapProfile;
use han_workload::telemetry::{validate_telemetry, TelemetryEvent};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use super::ingest::{absorbing_round, merge_cap, translate, Action, IngestContext, OnlineError};

const MAGIC: &[u8; 8] = b"HANSRV01";

/// A point-in-time view of the running service, as reported by `STATUS`.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStatus {
    /// The round the driver will execute next.
    pub next_round: u64,
    /// Rounds in the full simulated window.
    pub total_rounds: u64,
    /// The simulated instant of the next round.
    pub time: SimTime,
    /// Last recorded total load, kW.
    pub load_kw: f64,
    /// Running order-sensitive schedule digest.
    pub digest: u64,
    /// Requests delivered to devices so far.
    pub delivered: usize,
    /// Requests in the trace not yet delivered.
    pub pending_requests: usize,
    /// Injected actions still awaiting their round.
    pub pending_injections: usize,
    /// Rounds in which the fleet disagreed on the schedule.
    pub divergent_rounds: u64,
    /// Energy delivered so far, kWh.
    pub energy_kwh: f64,
    /// Whether the full window has been simulated.
    pub finished: bool,
}

/// One node's actuation state, as reported by `SCHEDULE <node>`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSchedule {
    /// The node (device interface) index.
    pub node: usize,
    /// Whether the appliance is currently drawing power.
    pub on: bool,
    /// Whether the device has an active obligation.
    pub active: bool,
    /// Rated power, W.
    pub power_w: f64,
    /// The planner-committed start instant, if one is planned.
    pub planned_start: Option<SimTime>,
    /// Duty-cycle windows served so far.
    pub windows_served: u32,
    /// Deadline misses so far.
    pub deadline_misses: u32,
}

/// The feeder-side view, as reported by `FEEDER`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeederStatus {
    /// The admission cap in force right now, kW (`None` = unconstrained).
    pub cap_kw: Option<f64>,
    /// Last recorded total load, kW.
    pub load_kw: f64,
    /// The flat tariff in force right now (`None` until a tariff event
    /// arrives — tariffs are reporting-level, never scheduled on).
    pub rate_per_kwh: Option<f64>,
    /// Energy delivered so far, kWh.
    pub energy_kwh: f64,
}

/// A long-lived, externally drivable simulation: the batch round loop
/// turned into a daemon-able service (see the [module docs](self)).
pub struct OnlineDriver {
    driver: Driver,
    period: SimDuration,
    /// End of the simulated window (inclusive round horizon).
    end: SimTime,
    total_rounds: u64,
    device_count: usize,
    duration: SimDuration,
    /// Every successfully ingested event, in ingest order — the
    /// snapshot's replay log.
    log: Vec<TelemetryEvent>,
    /// The admission-cap profile currently in force: the base strategy
    /// cap merged with every cap change ingested so far.
    cap: Option<PowerCapProfile>,
    /// Tariff changes, sorted by effective instant (stable): reporting
    /// state only.
    tariffs: Vec<(SimTime, f64)>,
    /// The observability sink serving `METRICS` / `DUMP`, when attached.
    sink: Option<Arc<ObsSink>>,
}

/// The base admission cap the strategy was configured with.
fn base_cap(config: &SimulationConfig) -> Option<PowerCapProfile> {
    match &config.strategy {
        Strategy::Coordinated(plan) => plan.admission_cap.clone(),
        Strategy::Centralized { plan, .. } => plan.admission_cap.clone(),
        Strategy::Uncoordinated => None,
    }
}

impl OnlineDriver {
    /// Wraps a fully built simulation into a drivable service.
    ///
    /// The simulation's configuration, request trace and fault plan
    /// become the *base* state; everything ingested afterwards grows it.
    /// Fault telemetry may arrive at any later round: the Ideal CP keeps
    /// its shared-row fast path until the first fault event, then fans
    /// out to per-node delivery rows mid-run (behavior-identical — every
    /// node's view *is* the shared row on a fault-free plane).
    ///
    /// Online mode does not carry the batch-only tuning hooks
    /// (`set_reference_planning`, `set_background`); build the
    /// simulation plainly, as [`crate::experiment::build_simulation`]
    /// does.
    pub fn new(sim: HanSimulation) -> OnlineDriver {
        let config = sim.config();
        let period = config.round_period;
        let duration = config.duration;
        let end = SimTime::ZERO + duration;
        let total_rounds = duration.as_micros() / period.as_micros() + 1;
        let device_count = config.fleet.device_count();
        let cap = base_cap(config);
        let driver = Driver::new(sim);
        OnlineDriver {
            driver,
            period,
            end,
            total_rounds,
            device_count,
            duration,
            log: Vec::new(),
            cap,
            tariffs: Vec::new(),
            sink: None,
        }
    }

    /// Attaches an observability sink: the simulation layers publish
    /// into it and the `METRICS` / `DUMP` protocol commands read from it.
    /// Observationally inert, exactly like
    /// [`HanSimulation::set_observer`] — the service's replies, report
    /// and snapshots are byte-identical with or without a sink.
    pub fn attach_observability(&mut self, sink: Arc<ObsSink>) {
        self.driver.set_obs(Obs::new(sink.clone()));
        self.sink = Some(sink);
    }

    /// The attached observability sink, if any.
    pub fn observability(&self) -> Option<&Arc<ObsSink>> {
        self.sink.as_ref()
    }

    /// Prometheus text exposition of the attached registry, with the
    /// simulation's cumulative totals freshly published. `None` without a
    /// sink.
    pub fn metrics_text(&self) -> Option<String> {
        let sink = self.sink.as_ref()?;
        self.driver.publish_obs();
        Some(sink.exposition())
    }

    /// The flight-recorder ring as `(events, JSONL)`, oldest first.
    /// `None` without a sink.
    pub fn flight_jsonl(&self) -> Option<(usize, String)> {
        let sink = self.sink.as_ref()?;
        Some((sink.flight().len(), sink.flight().jsonl()))
    }

    /// Registry-derived `STATUS` enrichment (leading space included);
    /// empty without a sink, keeping the base fields byte-stable for
    /// sink-free services.
    pub fn status_obs_suffix(&self) -> String {
        let Some(sink) = self.sink.as_ref() else {
            return String::new();
        };
        self.driver.publish_obs();
        let r = sink.registry();
        let mut suffix = format!(
            " pool_live={} pool_peak={} cp_delivered={} cp_dropped={}",
            r.gauge(Gauge::PoolLiveViews),
            r.gauge(Gauge::PoolPeakViews),
            r.counter(Counter::CpDeliveredRecords),
            r.counter(Counter::CpDroppedRecords),
        );
        // Appended once a save has failed: a healthy daemon's STATUS
        // keeps its bytes.
        let failures = r.counter(Counter::OnlineCheckpointFailures);
        if failures > 0 {
            let _ = write!(suffix, " checkpoint_failures={failures}");
        }
        suffix
    }

    /// Counts a failed auto-checkpoint and records it in the flight
    /// ring. The service keeps running; its next cadence tries again.
    pub(crate) fn record_checkpoint_failure(&self, error: &OnlineError) {
        let obs = self.driver.obs();
        obs.add(Counter::OnlineCheckpointFailures, 1);
        obs.event(
            self.next_round(),
            Subsystem::Online,
            "checkpoint-failed",
            || format!("error={error}"),
        );
    }

    /// Validates and applies one telemetry event. On success the event
    /// is appended to the snapshot log; on error nothing changes.
    ///
    /// # Errors
    ///
    /// See [`OnlineError`]: scenario-level violations, staleness (the
    /// absorbing round already ran), horizon overruns, or a finished run.
    pub fn ingest(&mut self, event: TelemetryEvent) -> Result<(), OnlineError> {
        // Operational wall-clock latency, never simulation semantics:
        // the clock is read only with a sink attached, and the histogram
        // feeds the daemon's exposition alone.
        let obs = self.driver.obs();
        let ingest_start = obs.enabled().then(Instant::now);
        if self.finished() {
            return Err(OnlineError::Finished);
        }
        let action = translate(
            &event,
            &IngestContext {
                next_round: self.driver.next_round(),
                period: self.period,
                duration: self.duration,
                device_count: self.device_count,
                cap: self.cap.as_ref(),
            },
        )?;
        match action {
            Action::Inject { round, injection } => {
                if let Injection::CapChange(Some(profile)) = &injection {
                    self.cap = Some(profile.clone());
                }
                self.driver.queue_injection(round, injection);
            }
            Action::Fault(fault) => self.driver.push_fault(fault)?,
            Action::Tariff { at, rate_per_kwh } => {
                let idx = self.tariffs.partition_point(|(t, _)| *t <= at);
                self.tariffs.insert(idx, (at, rate_per_kwh));
            }
        }
        self.log.push(event);
        if let Some(start) = ingest_start {
            obs.observe(Hist::IngestLatencyUs, start.elapsed().as_micros() as u64);
            obs.gauge(
                Gauge::OnlinePendingInjections,
                self.driver.pending_injections() as u64,
            );
        }
        Ok(())
    }

    /// Parses and ingests a whole telemetry script (the `INJECT` /
    /// `--replay` grammar). Events apply in script order; on the first
    /// failure the error is returned and later entries are not applied
    /// (earlier ones stay, as reported by the returned count inside
    /// `Ok`).
    ///
    /// # Errors
    ///
    /// The first parse or ingest failure, typed.
    pub fn ingest_script(&mut self, spec: &str) -> Result<usize, OnlineError> {
        let events = TelemetryEvent::parse_script(spec)?;
        let mut applied = 0;
        for event in events {
            self.ingest(event)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Runs the simulation forward until `round` rounds have executed
    /// (clamped to the window). Telemetry ingested before this call and
    /// absorbed by the advanced-over rounds takes effect exactly where a
    /// batch run would have placed it.
    pub fn advance_to(&mut self, round: u64) {
        let to = round.min(self.total_rounds);
        let from = self.driver.next_round();
        if to <= from {
            return;
        }
        let obs = self.driver.obs();
        let replan_start = obs.enabled().then(Instant::now);
        run_span(&mut self.driver, self.period, self.end, from, to);
        if let Some(start) = replan_start {
            obs.observe(Hist::ReplanLatencyUs, start.elapsed().as_micros() as u64);
        }
    }

    /// Advances until the simulated clock has covered `time`: every
    /// round whose phase instant is at or before `time` executes.
    pub fn advance_to_time(&mut self, time: SimTime) {
        let covered = time.min(self.end);
        self.advance_to(covered.as_micros() / self.period.as_micros() + 1);
    }

    /// Runs the remaining window to completion.
    pub fn run_to_end(&mut self) {
        self.advance_to(self.total_rounds);
    }

    /// Whether the full window has been simulated.
    pub fn finished(&self) -> bool {
        self.driver.next_round() >= self.total_rounds
    }

    /// The round the driver will execute next.
    pub fn next_round(&self) -> u64 {
        self.driver.next_round()
    }

    /// Rounds in the full simulated window.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// The simulated instant of the next round (capped at the horizon).
    pub fn now(&self) -> SimTime {
        (SimTime::ZERO + self.period * self.driver.next_round()).min(self.end)
    }

    /// The current service status (the `STATUS` reply).
    pub fn status(&self) -> OnlineStatus {
        let now = self.now();
        OnlineStatus {
            next_round: self.driver.next_round(),
            total_rounds: self.total_rounds,
            time: now,
            load_kw: self.driver.last_load_kw(),
            digest: self.driver.schedule_digest(),
            delivered: self.driver.delivered(),
            pending_requests: self.driver.pending_requests(),
            pending_injections: self.driver.pending_injections(),
            divergent_rounds: self.driver.divergent_rounds(),
            energy_kwh: self.driver.energy_kwh_to(now),
            finished: self.finished(),
        }
    }

    /// One node's actuation state (the `SCHEDULE <node>` reply).
    ///
    /// # Errors
    ///
    /// [`OnlineError::UnknownNode`] for an index outside the fleet.
    pub fn schedule_of(&self, node: usize) -> Result<NodeSchedule, OnlineError> {
        let devices = self.driver.devices();
        let di = devices.get(node).ok_or(OnlineError::UnknownNode {
            node,
            fleet: devices.len(),
        })?;
        let counters = di.counters();
        Ok(NodeSchedule {
            node,
            on: di.is_on(),
            active: di.is_active(),
            power_w: di.power().0,
            planned_start: di.planned_start(),
            windows_served: counters.windows_served,
            deadline_misses: counters.deadline_misses,
        })
    }

    /// The feeder-side view (the `FEEDER` reply).
    pub fn feeder(&self) -> FeederStatus {
        let now = self.now();
        let cap_kw = self
            .cap
            .as_ref()
            .map(|p| p.cap_at(now))
            .filter(|c| c.is_finite());
        let rate_per_kwh = self
            .tariffs
            .iter()
            .rev()
            .find(|(t, _)| *t <= now)
            .map(|(_, rate)| *rate);
        FeederStatus {
            cap_kw,
            load_kw: self.driver.last_load_kw(),
            rate_per_kwh,
            energy_kwh: self.driver.energy_kwh_to(now),
        }
    }

    /// Closes a completed run into the standard outcome record. Every
    /// field is restart-invariant: a run restored from a snapshot closes
    /// into the same record as an uninterrupted one.
    pub fn into_outcome(self) -> SimulationOutcome {
        self.driver.into_outcome()
    }

    // ---- service snapshots ------------------------------------------

    /// Serializes the full service state: the telemetry log plus an
    /// embedded state checkpoint, fingerprinted over the *grown*
    /// request/fault state (see the [module docs](self)).
    pub fn snapshot(&self) -> Vec<u8> {
        let checkpoint = Checkpoint {
            state: self.driver.export_state(self.driver.fingerprint()),
        };
        let mut out = Vec::new();
        let mut e = Enc::new(&mut out);
        e.raw(MAGIC);
        e.list(&self.log, |e, event| e.bytes(event.to_string().as_bytes()));
        e.bytes(&checkpoint.to_bytes());
        out
    }

    /// Writes a snapshot to `path` atomically: the bytes land in a
    /// `.tmp` sibling first and are renamed into place, so a crash
    /// mid-write never corrupts the previous checkpoint.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Io`] naming the path.
    pub fn save(&self, path: &std::path::Path) -> Result<(), OnlineError> {
        let io_err = |error: std::io::Error| OnlineError::Io {
            path: path.display().to_string(),
            error: error.to_string(),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.snapshot()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Rebuilds a service from a snapshot and the *base* simulation —
    /// the same configuration, request trace and fault plan originally
    /// handed to [`OnlineDriver::new`]. The snapshot's telemetry log is
    /// replayed: past arrivals merge into the request trace, fault
    /// events re-append to the timeline, cap changes re-fold in ingest
    /// order, and still-future events re-enter the injection queue. The
    /// recomputed fingerprint must match the snapshot's.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Checkpoint`] on a foreign or corrupted snapshot
    /// (including a fingerprint mismatch, checked before any state is
    /// restored), [`OnlineError::Scenario`] if the replayed state fails
    /// validation.
    pub fn restore(sim: HanSimulation, bytes: &[u8]) -> Result<OnlineDriver, OnlineError> {
        let (lines, blob) = decode_snapshot(bytes)?;
        let mut log = Vec::with_capacity(lines.len());
        for raw in lines {
            let line = std::str::from_utf8(raw).map_err(|_| OnlineError::BadCommand {
                reason: "snapshot log entry is not valid UTF-8".into(),
            })?;
            log.push(TelemetryEvent::parse(line)?);
        }
        // The log is replayed without the live ingest path's checks, so
        // it gets the one that keeps every event inside the fleet.
        validate_telemetry(&log, sim.config().fleet.device_count())?;
        let checkpoint = Checkpoint::from_bytes(blob)?;
        let next_round = checkpoint.round();

        // Rebuild the merged base state the pre-kill process had grown.
        let config = sim.config().clone();
        let ttl = sim.ttl();
        let period = config.round_period;
        let duration = config.duration;
        let mut requests = sim.requests().to_vec();
        let mut faults = sim.fault_plan().clone();
        let mut cap = base_cap(&config);
        let mut tariffs: Vec<(SimTime, f64)> = Vec::new();
        // The cap profile the planners had in force at the snapshot: the
        // last cap-change injection *drained* before the checkpoint round
        // (drain order is (absorbing round, ingest order)).
        let mut drained_cap: Option<(u64, PowerCapProfile)> = None;
        // Still-future actions, kept in ingest order.
        let mut future: Vec<(u64, Injection)> = Vec::new();

        for event in &log {
            let round = absorbing_round(event.effective_at(), period);
            match *event {
                TelemetryEvent::Arrival {
                    device,
                    at,
                    windows,
                } => {
                    let request = Request::with_windows(device, at, windows);
                    if round < next_round {
                        // Same sorted position the live inject_phase used.
                        let key = (request.arrival, request.device);
                        let idx = requests.partition_point(|r| (r.arrival, r.device) <= key);
                        requests.insert(idx, request);
                    } else {
                        future.push((round, Injection::Arrival(request)));
                    }
                }
                TelemetryEvent::Completion { device, .. } => {
                    if round >= next_round {
                        future.push((round, Injection::Completion(device)));
                    }
                    // A past completion's effects live in the checkpointed
                    // device state; nothing to replay.
                }
                TelemetryEvent::CapChange { at, cap_kw } => {
                    let merged = merge_cap(cap.as_ref(), at, cap_kw)?;
                    cap = Some(merged.clone());
                    if round < next_round {
                        drained_cap = Some((round, merged));
                    } else {
                        future.push((round, Injection::CapChange(Some(merged))));
                    }
                }
                TelemetryEvent::Tariff { at, rate_per_kwh } => {
                    let idx = tariffs.partition_point(|(t, _)| *t <= at);
                    tariffs.insert(idx, (at, rate_per_kwh));
                }
                TelemetryEvent::NodeDown { .. }
                | TelemetryEvent::NodeUp { .. }
                | TelemetryEvent::CpOutage { .. }
                | TelemetryEvent::SignalLoss { .. } => {
                    faults.push(FaultEvent::from_telemetry(event).expect("a fault kind"))?;
                }
            }
        }

        let total_rounds = duration.as_micros() / period.as_micros() + 1;
        let device_count = config.fleet.device_count();
        let end = SimTime::ZERO + duration;

        let mut merged = HanSimulation::new(config, requests)?;
        merged.set_faults(faults)?;
        merged.set_staleness_ttl(ttl);
        // The fingerprint is checked before any state is restored: a
        // snapshot of a differently shaped daemon must fail as a
        // mismatch, not trip the restore-time shape checks.
        let expected = merged.fingerprint();
        if expected != checkpoint.state.fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: checkpoint.state.fingerprint,
            }
            .into());
        }
        let mut driver = Driver::restore(merged, &checkpoint.state)?;

        // Re-apply the cap the planners had in force (fresh planners
        // restart from the base config cap). Queued first — against the
        // restored round — it drains before any still-future injection,
        // mirroring the fact that it had already drained pre-kill.
        if let Some((_, profile)) = drained_cap {
            driver.queue_injection(next_round, Injection::CapChange(Some(profile)));
        }
        for (round, injection) in future {
            driver.queue_injection(round, injection);
        }

        Ok(OnlineDriver {
            driver,
            period,
            end,
            total_rounds,
            device_count,
            duration,
            log,
            cap,
            tariffs,
            sink: None,
        })
    }

    /// Reads a snapshot from `path` and restores from it.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Io`] on read failure, plus everything
    /// [`OnlineDriver::restore`] reports.
    pub fn load(sim: HanSimulation, path: &std::path::Path) -> Result<OnlineDriver, OnlineError> {
        let bytes = std::fs::read(path).map_err(|error| OnlineError::Io {
            path: path.display().to_string(),
            error: error.to_string(),
        })?;
        OnlineDriver::restore(sim, &bytes)
    }
}

/// Splits a `HANSRV01` snapshot into its raw telemetry-log lines and the
/// embedded `HANCKPT1` blob.
fn decode_snapshot(bytes: &[u8]) -> Result<(Vec<&[u8]>, &[u8]), CheckpointError> {
    let mut d = Dec::new(bytes);
    d.magic(MAGIC)?;
    let lines = d.list(8, Dec::bytes)?;
    let blob = d.bytes()?;
    if d.remaining() != 0 {
        return Err(CheckpointError::TrailingBytes {
            extra: d.remaining(),
        });
    }
    Ok((lines, blob))
}
