//! The full HAN simulation: devices + communication plane + strategy.
//!
//! [`HanSimulation`] executes the paper's two-plane design round by round:
//!
//! 1. user requests arriving since the last round activate their devices
//!    (a request is local knowledge of the device's own DI);
//! 2. duty-cycle bookkeeping advances (window rollovers, deactivations);
//! 3. the **Communication Plane** runs: every DI publishes its status
//!    record, and receives its view of the system (per the [`CpModel`]);
//! 4. the **Execution Plane** runs: every DI independently computes the
//!    schedule from *its own* view and actuates *its own* appliance —
//!    there is no central controller in the coordinated strategy;
//! 5. the total load is recorded.
//!
//! Three strategies are provided: the paper's coordinated scheme, the
//! uncoordinated baseline it compares against, and a classical centralized
//! scheduler (an ablation beyond the paper).

use crate::algorithm::{
    demand_rate_kw, CoordinatedPlanner, Plan, PlanConfig, PlanScratch, SchedulingRule,
};
use crate::checkpoint::{ensure, Checkpoint, CheckpointError, SimState};
use crate::cp::{CommunicationPlane, CpModel, CpStats};
use crate::fault::{FaultEvent, FaultPlan};
use crate::schedule::Schedule;
use crate::state::SystemView;
use han_device::appliance::DeviceId;
use han_device::interface::DeviceInterface;
use han_device::request::Request;
use han_device::status::StatusRecord;
use han_metrics::timeseries::LoadTrace;
use han_metrics::ResilienceStats;
use han_obs::{Counter, Gauge, Hist, Obs, Subsystem};
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::{FleetSpec, ScenarioError};
use han_workload::signal::PowerCapProfile;
use std::collections::{HashMap, HashSet, VecDeque};

/// Scheduling strategy under test.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// The paper's decentralized collaborative scheduler.
    Coordinated(PlanConfig),
    /// The "w/o coordination" baseline: devices run as soon as requested.
    Uncoordinated,
    /// A classical centralized scheduler: one controller node computes the
    /// schedule from *its* view and commands everyone (ablation baseline).
    Centralized {
        /// Which device's node hosts the controller.
        controller: DeviceId,
        /// Planner parameters used by the controller.
        plan: PlanConfig,
        /// Optional fault injection: the controller stops issuing commands
        /// at this instant (the single point of failure, made concrete).
        crash_at: Option<SimTime>,
    },
}

impl Strategy {
    /// The paper's coordinated strategy with default parameters.
    pub fn coordinated() -> Self {
        Strategy::Coordinated(PlanConfig::default())
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// The device fleet under management (count, rated powers and
    /// duty-cycle constraints all come from here).
    pub fleet: FleetSpec,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Communication-plane round period (paper: 2 s).
    pub round_period: SimDuration,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Communication-plane model.
    pub cp: CpModel,
    /// Root seed for all stochastic components.
    pub seed: u64,
}

impl SimulationConfig {
    /// The paper's setup (26 × 1 kW, 15/30 min, 350 min) with an ideal CP —
    /// the fast configuration used by most experiments.
    pub fn paper(strategy: Strategy, seed: u64) -> Self {
        SimulationConfig {
            fleet: FleetSpec::paper(),
            duration: SimDuration::from_mins(350),
            round_period: SimDuration::from_secs(2),
            strategy,
            cp: CpModel::Ideal,
            seed,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for the first violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // The fleet is valid by construction (`FleetSpec::new` is the only
        // way to build one), so only the cross-field checks remain.
        if self.round_period.is_zero() {
            return Err(ScenarioError::ZeroRoundPeriod);
        }
        if self.duration < self.round_period {
            return Err(ScenarioError::DurationTooShort {
                duration: self.duration,
                round_period: self.round_period,
            });
        }
        if let Strategy::Centralized { controller, .. } = &self.strategy {
            if controller.index() >= self.fleet.device_count() {
                return Err(ScenarioError::ControllerOutOfRange {
                    controller: *controller,
                    device_count: self.fleet.device_count(),
                });
            }
        }
        match &self.cp {
            CpModel::Packet { st, topology } => {
                if topology.len() < self.fleet.device_count() {
                    return Err(ScenarioError::TopologyTooSmall {
                        nodes: topology.len(),
                        device_count: self.fleet.device_count(),
                    });
                }
                st.validate()
                    .and_then(|()| st.check_fits_round(topology.len()))
                    .map_err(|reason| ScenarioError::InvalidPacketConfig { reason })?;
            }
            CpModel::LossyRound { miss_probability }
            | CpModel::LossyRecord { miss_probability } => {
                if !(0.0..=1.0).contains(miss_probability) {
                    return Err(ScenarioError::InvalidProbability {
                        probability: *miss_probability,
                    });
                }
            }
            CpModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                for p in [p_good_to_bad, p_bad_to_good, loss_good, loss_bad] {
                    if !(0.0..=1.0).contains(p) {
                        return Err(ScenarioError::InvalidProbability { probability: *p });
                    }
                }
            }
            CpModel::Ideal => {}
        }
        Ok(())
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Total-load step trace (kW).
    pub trace: LoadTrace,
    /// Communication rounds executed.
    pub rounds: u64,
    /// Windows that closed without their minDCD obligation met.
    pub deadline_misses: u32,
    /// Windows served to completion.
    pub windows_served: u32,
    /// Early-OFF commands refused by device interlocks.
    pub refused_early_off: u32,
    /// Rounds in which not all nodes computed the same schedule
    /// (coordinated strategy only; 0 otherwise).
    pub divergent_rounds: u64,
    /// Requests delivered to devices.
    pub requests_delivered: usize,
    /// Total energy delivered over the run, kWh.
    pub energy_kwh: f64,
    /// Communication-plane statistics.
    pub cp: CpStats,
    /// Order-sensitive digest of every node's schedule in every round
    /// (coordinated strategy only; 0 otherwise). Two runs with equal
    /// digests issued byte-identical schedules at every node in every
    /// round — the probe the differential tests use to prove the memoized
    /// execution plane exactly matches the naive per-node reference.
    pub schedule_digest: u64,
    /// Resilience accounting under the configured [`FaultPlan`]: fault
    /// exposure, recovery times to re-agreement, misses by cause. Quiet
    /// (all zeros) when no faults were injected.
    pub resilience: ResilienceStats,
}

impl SimulationOutcome {
    /// Fraction of closed windows that met their obligation.
    pub fn service_rate(&self) -> f64 {
        let total = self.deadline_misses + self.windows_served;
        if total == 0 {
            1.0
        } else {
            f64::from(self.windows_served) / f64::from(total)
        }
    }
}

/// A configured, runnable simulation.
#[derive(Debug)]
pub struct HanSimulation {
    config: SimulationConfig,
    requests: Vec<Request>,
    background: Option<LoadTrace>,
    reference_planning: bool,
    faults: FaultPlan,
    staleness_ttl: Option<u32>,
    /// Observability handle threaded into the driver. Never part of the
    /// run fingerprint or any checkpoint: observation is not state.
    observer: Obs,
}

/// Reusable per-round working memory for the execution plane. Its
/// buffers grow in the first rounds and are reused from then on, so a
/// steady-state round of the coordinated paper home on an abstract CP
/// allocates nothing (`crates/core/tests/alloc_free.rs` checks this).
#[derive(Debug, Default)]
struct RoundScratch {
    /// Status records published this round.
    statuses: Vec<StatusRecord>,
    /// Per-device status sequence numbers.
    seqs: Vec<u32>,
    /// Distinct schedule content hashes this round (divergence probe).
    hashes: HashSet<u64>,
    /// `(view-pool handle, level bits)` → index into `plans`.
    groups: HashMap<(u32, u64), usize>,
    /// Demand rate memo per view-pool handle.
    demands: HashMap<u32, f64>,
    /// One plan per distinct `(view, level)` group this round: the first
    /// `live_plans` entries. The rest are earlier rounds' plans, kept so
    /// the next group plans into their buffers.
    plans: Vec<Plan>,
    /// How many of `plans` this round has filled.
    live_plans: usize,
    /// The planning kernel's working memory.
    kernel: PlanScratch,
    /// `plans[i].schedule.content_hash()`, computed once per distinct plan.
    plan_hashes: Vec<u64>,
    /// Each node's index into `plans`.
    node_plan: Vec<usize>,
}

impl RoundScratch {
    /// The next recycled plan slot of this round and its index, with the
    /// kernel's working memory.
    fn next_plan(&mut self) -> (usize, &mut Plan, &mut PlanScratch) {
        let idx = self.live_plans;
        if idx == self.plans.len() {
            self.plans.push(Plan::default());
        }
        self.live_plans += 1;
        (idx, &mut self.plans[idx], &mut self.kernel)
    }
}

/// Folds one schedule hash into the order-sensitive run digest.
fn fold_digest(digest: u64, schedule_hash: u64) -> u64 {
    (digest.rotate_left(5) ^ schedule_hash).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl HanSimulation {
    /// Creates a simulation over a request trace.
    ///
    /// Requests are sorted by arrival; requests addressed to devices
    /// outside the fleet are rejected.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for the first invalid configuration item or
    /// request.
    pub fn new(config: SimulationConfig, requests: Vec<Request>) -> Result<Self, ScenarioError> {
        config.validate()?;
        let device_count = config.fleet.device_count();
        let mut requests = requests;
        for r in &requests {
            if r.device.index() >= device_count {
                return Err(ScenarioError::UnknownDevice {
                    device: r.device,
                    device_count,
                });
            }
        }
        requests.sort_by_key(|r| (r.arrival, r.device));
        Ok(HanSimulation {
            config,
            requests,
            background: None,
            reference_planning: false,
            faults: FaultPlan::empty(),
            staleness_ttl: None,
            observer: Obs::off(),
        })
    }

    /// Installs a deterministic [`FaultPlan`]: node churn and CP outages
    /// are injected round by round, before each round opens. An
    /// empty plan (the default) leaves every code path bit-identical to a
    /// fault-free run.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidFaultPlan`] if the plan names a node
    /// outside the fleet.
    pub fn set_faults(&mut self, faults: FaultPlan) -> Result<&mut Self, ScenarioError> {
        faults.validate_nodes(self.config.fleet.device_count())?;
        self.faults = faults;
        Ok(self)
    }

    /// Ages out ghost records: at plan time each node ignores any foreign
    /// record older than `ttl` rounds (its own record is always kept).
    /// `None` — the default — disables the filter, preserving bit-exact
    /// compatibility with earlier releases, where a dead node's last
    /// record lingers in every survivor's view forever.
    pub fn set_staleness_ttl(&mut self, ttl: Option<u32>) -> &mut Self {
        self.staleness_ttl = ttl;
        self
    }

    /// Attaches an observability handle ([`han_obs::Obs`]), threaded
    /// through every layer of the run. **Observationally inert** by
    /// contract: an instrumented run is digest-, trace- and
    /// CP-stats-identical to an uninstrumented one (the handle never
    /// enters a checkpoint or the run fingerprint, and no hook touches
    /// RNG or state). Enforced by
    /// `crates/core/tests/prop_obs.rs`.
    pub fn set_observer(&mut self, observer: Obs) -> &mut Self {
        self.observer = observer;
        self
    }

    /// Forces the naive reference formulation end to end: the
    /// communication plane keeps one privately mutated view per node (no
    /// content-addressed pooling), and every Device Interface runs the
    /// full planner on its own view every round, with no view grouping —
    /// exactly the paper's literal formulation.
    ///
    /// This is the differential-testing and benchmarking oracle for the
    /// default fast path (pooled copy-on-write views + grouped planning,
    /// once per distinct view), which must produce byte-identical
    /// schedules. It is not part of the supported API surface.
    #[doc(hidden)]
    pub fn set_reference_planning(&mut self, on: bool) -> &mut Self {
        self.reference_planning = on;
        self
    }

    /// Adds an uncontrollable Type-1 background load (instant appliances:
    /// fans, TVs, hair-dryers…) summed into the recorded total. The
    /// scheduler neither sees nor controls it — exactly the paper's Type-1
    /// class. Build it with [`LoadTrace::from_pulses`].
    pub fn set_background(&mut self, background: LoadTrace) -> &mut Self {
        self.background = Some(background);
        self
    }

    /// Total rounds the configured horizon executes (rounds fire at
    /// `0, p, 2p, …` while the instant is at or before the end).
    fn total_rounds(&self) -> u64 {
        self.config.duration.as_micros() / self.config.round_period.as_micros() + 1
    }

    /// The configuration (crate-internal: the online driver snapshots it
    /// before handing `self` to the round driver).
    pub(crate) fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The sorted request trace (crate-internal, see [`Self::config`]).
    pub(crate) fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// The installed fault plan (crate-internal, see [`Self::config`]).
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The ghost-record TTL (crate-internal, see [`Self::config`]).
    pub(crate) fn ttl(&self) -> Option<u32> {
        self.staleness_ttl
    }

    /// Advisory fingerprint of everything that shapes the run besides the
    /// dynamic state: a checkpoint refuses to resume under a different
    /// configuration. Not cryptographic — it catches mistakes, not
    /// adversaries.
    pub(crate) fn fingerprint(&self) -> u64 {
        run_fingerprint(
            &self.config,
            self.reference_planning,
            self.staleness_ttl,
            &self.requests,
            &self.faults,
        )
    }

    /// Runs the simulation to completion.
    pub fn run(self) -> SimulationOutcome {
        let period = self.config.round_period;
        let end = SimTime::ZERO + self.config.duration;
        let total = self.total_rounds();
        let mut driver = Driver::new(self);
        run_span(&mut driver, period, end, 0, total);
        driver.into_outcome()
    }

    /// Runs to completion like [`HanSimulation::run`], additionally
    /// capturing a [`Checkpoint`] at the `at_round` boundary (after
    /// `at_round` rounds have executed; clamped to the horizon). The
    /// capture is a pure snapshot: the returned outcome is bit-identical
    /// to an uncheckpointed run.
    pub fn run_checkpointed(self, at_round: u64) -> (SimulationOutcome, Checkpoint) {
        let period = self.config.round_period;
        let end = SimTime::ZERO + self.config.duration;
        let total = self.total_rounds();
        let split = at_round.min(total);
        let fingerprint = self.fingerprint();
        let mut driver = Driver::new(self);
        run_span(&mut driver, period, end, 0, split);
        let checkpoint = Checkpoint {
            state: driver.export_state(fingerprint),
        };
        run_span(&mut driver, period, end, split, total);
        (driver.into_outcome(), checkpoint)
    }

    /// Resumes a checkpointed run to completion. The configuration,
    /// request trace, fault plan and tuning flags must match the original
    /// run (enforced by fingerprint); the continuation is then digest-,
    /// trace- and CP-stats-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] if the checkpoint was taken
    /// under a different configuration;
    /// [`CheckpointError::Inconsistent`] if its state could not have come
    /// from a run of this configuration.
    pub fn resume(self, checkpoint: &Checkpoint) -> Result<SimulationOutcome, CheckpointError> {
        let expected = self.fingerprint();
        if checkpoint.state.fingerprint != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: checkpoint.state.fingerprint,
            });
        }
        let period = self.config.round_period;
        let end = SimTime::ZERO + self.config.duration;
        let total = self.total_rounds();
        let from = checkpoint.state.next_round;
        let mut driver = Driver::restore(self, &checkpoint.state)?;
        run_span(&mut driver, period, end, from, total);
        Ok(driver.into_outcome())
    }
}

/// Fingerprint of everything that shapes a run besides the dynamic
/// state: configuration, tuning flags, the request trace and the fault
/// timeline. [`HanSimulation`] folds it into every [`Checkpoint`] so a
/// resume under a different setup is refused; the online driver recomputes
/// it over its *grown* request/fault state, so a service snapshot is
/// refused unless replaying the telemetry log reproduced that state
/// exactly. Not cryptographic — it catches mistakes, not adversaries.
pub(crate) fn run_fingerprint(
    config: &SimulationConfig,
    reference_planning: bool,
    staleness_ttl: Option<u32>,
    requests: &[Request],
    faults: &FaultPlan,
) -> u64 {
    let mut d: u64 = 0x4841_4E43_4B50_5431; // "HANCKPT1"
    let mut fold = |v: u64| d = (d.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    fold(config.fleet.device_count() as u64);
    fold(config.duration.as_micros());
    fold(config.round_period.as_micros());
    fold(config.seed);
    // The slot that once held the execution backend (0 = the round loop,
    // the only one left). Still folded so `HANCKPT1` checkpoints and
    // `HANSRV01` snapshots written by earlier releases keep restoring.
    fold(0);
    fold(match &config.strategy {
        Strategy::Coordinated(_) => 0,
        Strategy::Uncoordinated => 1,
        Strategy::Centralized { controller, .. } => 2 | (u64::from(controller.0) << 8),
    });
    fold(match &config.cp {
        CpModel::Ideal => 0,
        CpModel::LossyRound { miss_probability } => 1 | (miss_probability.to_bits() << 8),
        CpModel::LossyRecord { miss_probability } => 2 | (miss_probability.to_bits() << 8),
        CpModel::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            ..
        } => 3 | (p_good_to_bad.to_bits() ^ p_bad_to_good.to_bits()) << 8,
        CpModel::Packet { .. } => 4,
    });
    fold(u64::from(reference_planning));
    fold(match staleness_ttl {
        None => u64::MAX,
        Some(t) => u64::from(t),
    });
    fold(requests.len() as u64);
    for r in requests {
        fold(u64::from(r.device.0));
        fold(r.arrival.as_micros());
    }
    fold(faults.events().len() as u64);
    for ev in faults.events() {
        match *ev {
            FaultEvent::NodeDown { at, node } => {
                fold(1 | (node as u64) << 8);
                fold(at.as_micros());
            }
            FaultEvent::NodeUp { at, node } => {
                fold(2 | (node as u64) << 8);
                fold(at.as_micros());
            }
            FaultEvent::CpOutage { from, until } => {
                fold(3);
                fold(from.as_micros());
                fold(until.as_micros());
            }
            FaultEvent::SignalLoss { from, until } => {
                fold(4);
                fold(from.as_micros());
                fold(until.as_micros());
            }
        }
    }
    d
}

/// Executes rounds `[from, to)` on the fixed-period synchronous round
/// loop, timing each phase as a span when the attached sink wants spans.
pub(crate) fn run_span(driver: &mut Driver, period: SimDuration, end: SimTime, from: u64, to: u64) {
    if to <= from {
        return;
    }
    let obs = driver.obs.clone();
    // Hoisted so the no-trace path pays one boolean test per phase
    // instead of a virtual call into the sink.
    let spans = obs.wants_spans();
    let mut now = SimTime::ZERO + period * from;
    let mut round = from;
    while now <= end && round < to {
        // Injections drain first: a drained event may install the run's
        // first fault plan, so `has_faults` is checked *after*.
        if driver.has_injections() {
            let s = if spans { obs.span_begin() } else { None };
            driver.inject_phase(now);
            obs.span_end("inject", round, s);
        }
        if driver.has_faults() {
            let s = if spans { obs.span_begin() } else { None };
            driver.fault_phase(now);
            obs.span_end("fault", round, s);
        }
        let s = if spans { obs.span_begin() } else { None };
        driver.begin_round(now);
        obs.span_end("begin", round, s);
        let s = if spans { obs.span_begin() } else { None };
        driver.comms();
        obs.span_end("comms", round, s);
        let s = if spans { obs.span_begin() } else { None };
        driver.plan(now);
        obs.span_end("plan", round, s);
        let s = if spans { obs.span_begin() } else { None };
        driver.end_round(now);
        obs.span_end("end", round, s);
        now += period;
        round += 1;
    }
    driver.publish_obs();
}

/// One externally injected action, queued against the round that absorbs
/// it. The online service mode translates ingested telemetry
/// (`han_workload::telemetry::TelemetryEvent`) into these; the round
/// loop drains them in its inject phase, *before* the
/// round's fault application and request delivery, so an injected event
/// lands exactly where a batch run would have placed it.
///
/// Fault telemetry takes a different path: it is pushed straight into
/// the [`FaultPlan`] at ingest time (the plan's per-round scans are
/// stateless, so appended events simply start matching), which keeps the
/// fingerprint covering it immediately.
#[derive(Debug, Clone)]
pub(crate) enum Injection {
    /// Deliver a new user request. Inserted into the trace in sorted
    /// `(arrival, device)` position — bit-identical to a batch run whose
    /// trace contained the request from the start.
    Arrival(Request),
    /// Early release: the user asks the device off ahead of plan. Routed
    /// through the DI's own command path, so the minDCD interlock still
    /// refuses unsafe early-offs (counted, device stays on).
    Completion(DeviceId),
    /// Swap the admission-cap profile on every planner. The caller passes
    /// the *merged* profile (old cap before the change instant, new cap
    /// after): the profile a batch run of the same events plans under.
    CapChange(Option<PowerCapProfile>),
}

/// All mutable run state (devices, communication plane, planners,
/// accumulators) plus the round phases [`run_span`] calls in order.
pub(crate) struct Driver {
    config: SimulationConfig,
    requests: Vec<Request>,
    background: Option<LoadTrace>,
    reference_planning: bool,
    uses_cp: bool,
    dis: Vec<DeviceInterface>,
    cp: CommunicationPlane,
    /// One planner per node (coordinated) or one for the controller.
    planners: Vec<CoordinatedPlanner>,
    /// Centralized mode: the last command each device actually received.
    last_command: Vec<bool>,
    scratch: RoundScratch,
    trace: LoadTrace,
    divergent_rounds: u64,
    rounds: u64,
    delivered: usize,
    next_request: usize,
    last_load_kw: f64,
    schedule_digest: u64,
    /// The deterministic fault timeline (empty = fault-free fast path).
    faults: FaultPlan,
    /// Ghost-record age-out horizon, in rounds (`None` = keep forever).
    staleness_ttl: Option<u32>,
    /// Scratch: which nodes are down this round (re-derived statelessly
    /// from the plan each round, so it never enters a checkpoint).
    down: Vec<bool>,
    /// Whether a CP outage blacks out this round.
    outage: bool,
    resilience: ResilienceStats,
    /// Round at which the last fault cleared, while the divergence probe
    /// has not yet seen the fleet re-agree.
    recovery_since: Option<u64>,
    /// Whether any fault was active in the previous round (detects the
    /// fault-cleared edge that starts the recovery clock).
    fault_active_last: bool,
    /// Total deadline misses at the end of the previous round, for
    /// per-round attribution of new misses to the active fault class.
    last_miss_total: u32,
    /// Externally injected actions awaiting their round, sorted by round
    /// (stable for equal rounds: ingest order). Always empty in batch
    /// runs — only the online service mode queues into it, and it is
    /// never checkpointed (the service snapshot replays the telemetry
    /// log instead).
    injections: VecDeque<(u64, Injection)>,
    /// Observability handle. Disabled (`Obs::off()`) in batch runs
    /// unless the caller attached a sink; excluded from [`SimState`] —
    /// observation is not state.
    obs: Obs,
}

impl Driver {
    pub(crate) fn new(sim: HanSimulation) -> Driver {
        let cfg = &sim.config;
        let n = cfg.fleet.device_count();

        // Per-spec construction: each device carries its class's rated
        // power and duty-cycle constraints (the planner and wire format
        // are heterogeneity-aware end to end).
        let dis: Vec<DeviceInterface> = cfg
            .fleet
            .specs()
            .map(|spec| DeviceInterface::new(spec.appliance(), spec.constraints))
            .collect();

        let mut cp = CommunicationPlane::new(cfg.cp.clone(), n, cfg.seed);
        if sim.reference_planning {
            cp.set_reference_views();
        }
        // Churn and outages need per-node delivery rows (a down node's
        // view diverges from the survivors'); fault-free runs keep the
        // shared-row fast path bit-identical to earlier releases.
        if sim.faults.has_cp_faults() {
            cp.enable_per_node_rows();
        }
        let planners: Vec<CoordinatedPlanner> = match &cfg.strategy {
            Strategy::Coordinated(plan_cfg) => (0..n)
                .map(|_| CoordinatedPlanner::new(plan_cfg.clone()))
                .collect(),
            Strategy::Centralized { plan, .. } => vec![CoordinatedPlanner::new(plan.clone())],
            Strategy::Uncoordinated => Vec::new(),
        };
        let uses_cp = !matches!(cfg.strategy, Strategy::Uncoordinated);

        let mut trace = LoadTrace::new();
        trace.record(SimTime::ZERO, 0.0);

        Driver {
            uses_cp,
            dis,
            cp,
            planners,
            last_command: vec![false; n],
            scratch: RoundScratch::default(),
            trace,
            divergent_rounds: 0,
            rounds: 0,
            delivered: 0,
            next_request: 0,
            last_load_kw: 0.0,
            schedule_digest: 0,
            faults: sim.faults,
            staleness_ttl: sim.staleness_ttl,
            down: vec![false; n],
            outage: false,
            resilience: ResilienceStats::default(),
            recovery_since: None,
            fault_active_last: false,
            last_miss_total: 0,
            injections: VecDeque::new(),
            obs: sim.observer,
            config: sim.config,
            requests: sim.requests,
            background: sim.background,
            reference_planning: sim.reference_planning,
        }
    }

    /// Captures the complete dynamic state at a round boundary (all
    /// rounds `< self.rounds` executed, round `self.rounds` next).
    pub(crate) fn export_state(&self, fingerprint: u64) -> SimState {
        SimState {
            fingerprint,
            next_round: self.rounds,
            divergent_rounds: self.divergent_rounds,
            delivered: self.delivered as u64,
            next_request: self.next_request as u64,
            last_load_kw: self.last_load_kw,
            schedule_digest: self.schedule_digest,
            trace: self.trace.points().to_vec(),
            last_command: self.last_command.clone(),
            dis: self.dis.iter().map(DeviceInterface::snapshot).collect(),
            planners: self
                .planners
                .iter()
                .map(CoordinatedPlanner::persisted_level)
                .collect(),
            cp: self.cp.export(),
            resilience: self.resilience.clone(),
            recovery_since: self.recovery_since,
            fault_active_last: self.fault_active_last,
            last_miss_total: self.last_miss_total,
        }
    }

    /// Rebuilds a driver mid-run from a captured state: static structure
    /// from the (fingerprint-checked) configuration, dynamic state from
    /// the checkpoint. The state is checked against that structure before
    /// any of it is installed (see [`check_state`]), so a decoded but
    /// inconsistent checkpoint fails typed instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Inconsistent`] naming the first failed check.
    pub(crate) fn restore(sim: HanSimulation, state: &SimState) -> Result<Driver, CheckpointError> {
        let total_rounds = sim.total_rounds();
        let mut driver = Driver::new(sim);
        check_state(&driver, state, total_rounds)?;
        driver.cp.restore(&state.cp)?;
        for (di, snap) in driver.dis.iter_mut().zip(&state.dis) {
            di.restore(snap);
        }
        for (planner, &(level, last)) in driver.planners.iter_mut().zip(&state.planners) {
            planner.restore_level(level, last);
        }
        driver.last_command.clone_from(&state.last_command);
        driver.trace = state.trace.iter().copied().collect();
        driver.divergent_rounds = state.divergent_rounds;
        driver.rounds = state.next_round;
        driver.delivered = state.delivered as usize;
        driver.next_request = state.next_request as usize;
        driver.last_load_kw = state.last_load_kw;
        driver.schedule_digest = state.schedule_digest;
        driver.resilience = state.resilience.clone();
        driver.recovery_since = state.recovery_since;
        driver.fault_active_last = state.fault_active_last;
        driver.last_miss_total = state.last_miss_total;
        Ok(driver)
    }

    /// Closes the run: end-of-horizon aggregation over the device
    /// counters and the load trace.
    pub(crate) fn into_outcome(self) -> SimulationOutcome {
        let end = SimTime::ZERO + self.config.duration;
        let energy_kwh = self.trace.energy_kwh(SimTime::ZERO, end);
        let mut deadline_misses = 0;
        let mut windows_served = 0;
        let mut refused = 0;
        for di in &self.dis {
            let c = di.counters();
            deadline_misses += c.deadline_misses;
            windows_served += c.windows_served;
            refused += c.refused_early_off;
        }

        SimulationOutcome {
            trace: self.trace,
            rounds: self.rounds,
            deadline_misses,
            windows_served,
            refused_early_off: refused,
            divergent_rounds: self.divergent_rounds,
            requests_delivered: self.delivered,
            energy_kwh,
            cp: self.cp.into_stats(),
            schedule_digest: self.schedule_digest,
            resilience: self.resilience,
        }
    }

    /// Publishes cumulative subsystem totals into the attached metrics
    /// sink. Called at **span boundaries** (never per round): the
    /// subsystems count in plain integer fields and this folds the sums
    /// in via monotonic publishes, so the hot loop carries no atomics.
    /// A no-op without a sink.
    pub(crate) fn publish_obs(&self) {
        if !self.obs.enabled() {
            return;
        }
        let obs = &self.obs;
        let invocations = self.planners.iter().map(|p| p.invocations()).sum();
        obs.publish(Counter::PlannerInvocations, invocations);
        if self.uses_cp {
            let stats = self.cp.stats();
            obs.publish(Counter::CpAttemptedRecords, stats.expected_records);
            obs.publish(Counter::CpDeliveredRecords, stats.refreshed_records);
            obs.publish(
                Counter::CpDroppedRecords,
                stats.expected_records - stats.refreshed_records,
            );
            if let Some((forks, edits)) = self.cp.pool_churn() {
                obs.publish(Counter::PoolForks, forks);
                obs.publish(Counter::PoolInPlaceEdits, edits);
            }
            if let Some(vp) = &stats.view_pool {
                obs.gauge(Gauge::PoolLiveViews, vp.live_views as u64);
                obs.gauge_max(Gauge::PoolPeakViews, vp.peak_views as u64);
            }
        }
        obs.publish(Counter::RoundsExecuted, self.rounds);
        obs.publish(Counter::DivergentRounds, self.divergent_rounds);
        obs.gauge(Gauge::OnlinePendingInjections, self.injections.len() as u64);
    }

    /// A clone of the attached observability handle (crate-internal:
    /// the online driver emits its own boundary events through it).
    pub(crate) fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Replaces the observability handle (crate-internal: the online
    /// service attaches its sink after construction or restore).
    pub(crate) fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    // ---- online service surface (crate-internal) --------------------
    //
    // The `online` module drives a `Driver` round by round over a long-
    // lived process, splicing externally observed telemetry between
    // rounds. Everything below is the minimal surface that makes that
    // possible without widening any field.

    /// The round the driver will execute next (equals rounds executed).
    pub(crate) fn next_round(&self) -> u64 {
        self.rounds
    }

    /// Requests delivered to devices so far.
    pub(crate) fn delivered(&self) -> usize {
        self.delivered
    }

    /// Requests in the trace not yet delivered.
    pub(crate) fn pending_requests(&self) -> usize {
        self.requests.len() - self.next_request
    }

    /// Externally injected actions still awaiting their round.
    pub(crate) fn pending_injections(&self) -> usize {
        self.injections.len()
    }

    /// Last recorded total load, kW.
    pub(crate) fn last_load_kw(&self) -> f64 {
        self.last_load_kw
    }

    /// Energy delivered so far, kWh, up to `until` (zero before the
    /// first round has run — `LoadTrace` rejects empty intervals).
    pub(crate) fn energy_kwh_to(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        self.trace.energy_kwh(SimTime::ZERO, until)
    }

    /// Running order-sensitive schedule digest.
    pub(crate) fn schedule_digest(&self) -> u64 {
        self.schedule_digest
    }

    /// Rounds in which the fleet disagreed on the schedule so far.
    pub(crate) fn divergent_rounds(&self) -> u64 {
        self.divergent_rounds
    }

    /// The per-device interfaces (actuated state, counters, cyclers).
    pub(crate) fn devices(&self) -> &[DeviceInterface] {
        &self.dis
    }

    /// Fingerprint over the driver's *current* request trace and fault
    /// timeline — the grown state, not the batch seed.
    pub(crate) fn fingerprint(&self) -> u64 {
        run_fingerprint(
            &self.config,
            self.reference_planning,
            self.staleness_ttl,
            &self.requests,
            &self.faults,
        )
    }

    /// Queues an injected action for the round that absorbs it. Stable
    /// for equal rounds: later queues drain after earlier ones.
    pub(crate) fn queue_injection(&mut self, round: u64, injection: Injection) {
        let idx = self.injections.partition_point(|(r, _)| *r <= round);
        self.injections.insert(idx, (round, injection));
    }

    /// Appends a fault event to the live timeline. The plan's per-round
    /// scans are stateless, so the event simply starts matching from its
    /// effective instant onward.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] if the event is structurally invalid or names a
    /// node outside the fleet.
    pub(crate) fn push_fault(&mut self, event: FaultEvent) -> Result<(), ScenarioError> {
        if let FaultEvent::NodeDown { node, .. } | FaultEvent::NodeUp { node, .. } = &event {
            if *node >= self.dis.len() {
                return Err(ScenarioError::InvalidFaultPlan {
                    reason: format!(
                        "node {node} outside the fleet (devices 0..{})",
                        self.dis.len()
                    ),
                });
            }
        }
        self.faults.push(event)?;
        // Churn and outages need per-node delivery rows. The Ideal
        // plane's shared-row fast path is kept until the timeline first
        // needs them; the mid-run fan-out is behavior-identical (see
        // `CommunicationPlane::enable_per_node_rows`).
        if self.uses_cp && self.faults.has_cp_faults() {
            self.cp.enable_per_node_rows();
        }
        Ok(())
    }
}

/// Checks a decoded [`SimState`] against the freshly built driver it is
/// about to be restored into. Every count, id and instant the round loop
/// indexes or subtracts with must be one a real run could have produced
/// by round `state.next_round`; the communication plane checks its own
/// part in [`CommunicationPlane::restore`].
fn check_state(fresh: &Driver, state: &SimState, total_rounds: u64) -> Result<(), CheckpointError> {
    let n = fresh.dis.len();
    ensure(state.next_round <= total_rounds, || {
        format!(
            "next round {} beyond the {total_rounds}-round horizon",
            state.next_round
        )
    })?;
    // In range now: the horizon's rounds all have representable instants.
    let next = SimTime::ZERO + fresh.config.round_period * state.next_round;
    let not_after_next = |t: SimTime, what: &str| {
        ensure(t <= next, || {
            format!(
                "{what} at {}µs, after the next round's instant {}µs",
                t.as_micros(),
                next.as_micros()
            )
        })
    };
    for (what, count, expected) in [
        ("device interface", state.dis.len(), n),
        ("last-command", state.last_command.len(), n),
        ("planner", state.planners.len(), fresh.planners.len()),
    ] {
        ensure(count == expected, || {
            format!("{count} {what} entries where the configuration has {expected}")
        })?;
    }
    // A plane carrying CP faults must deliver per node: fault injection
    // refuses a shared delivery row.
    ensure(
        state.cp.per_node_rows || !(fresh.uses_cp && fresh.faults.has_cp_faults()),
        || "CP faults are scheduled but delivery rows are shared".into(),
    )?;
    ensure(state.next_request <= fresh.requests.len() as u64, || {
        format!(
            "request cursor {} past the {}-request trace",
            state.next_request,
            fresh.requests.len()
        )
    })?;
    ensure(state.last_load_kw.is_finite(), || {
        "non-finite last load".into()
    })?;
    ensure(
        state
            .trace
            .first()
            .is_some_and(|&(t, _)| t == SimTime::ZERO),
        || "the load trace does not start at time zero".into(),
    )?;
    for (i, &(t, kw)) in state.trace.iter().enumerate() {
        ensure(kw.is_finite(), || {
            format!("non-finite load at trace point {i}")
        })?;
        ensure(i == 0 || state.trace[i - 1].0 < t, || {
            format!("trace point {i} does not follow its predecessor")
        })?;
        not_after_next(t, "a trace point")?;
    }
    for (i, (snap, di)) in state.dis.iter().zip(&fresh.dis).enumerate() {
        if let Some(a) = &snap.cycler.active {
            for t in [
                Some(a.window_start),
                Some(a.arrival),
                a.on_since,
                a.instance_start,
            ]
            .into_iter()
            .flatten()
            {
                not_after_next(t, &format!("device {i}'s duty-cycle state"))?;
            }
            // A running segment started inside its still-open window;
            // closing the window subtracts the segment start from its end.
            let window_end = a.window_start + di.cycler().constraints().max_dcp();
            ensure(a.on_since.is_none_or(|s| s <= window_end), || {
                format!("device {i} switched on after its window closed")
            })?;
        }
        ensure(
            snap.last_published
                .is_none_or(|rec| rec.device.index() == i),
            || format!("device {i}'s last published record names another device"),
        )?;
    }
    let misses: u64 = state
        .dis
        .iter()
        .map(|d| u64::from(d.counters.deadline_misses))
        .sum();
    ensure(u64::from(state.last_miss_total) <= misses, || {
        format!(
            "{} misses attributed of {misses} counted",
            state.last_miss_total
        )
    })?;
    for (i, &(level, last)) in state.planners.iter().enumerate() {
        ensure(level.is_finite(), || {
            format!("planner {i} has a non-finite level")
        })?;
        if let Some(t) = last {
            not_after_next(t, &format!("planner {i}'s last update"))?;
        }
    }
    ensure(
        state.recovery_since.is_none_or(|r| r <= state.next_round),
        || "recovery clock started after the next round".into(),
    )?;
    Ok(())
}

/// Builds node `node`'s TTL-filtered view if any foreign record has aged
/// past `ttl` rounds, or `None` when the raw (pooled) view serves as-is.
/// A node's own record is never aged out — the DI is the authority on
/// itself.
fn ttl_filtered_view(
    cp: &CommunicationPlane,
    node: usize,
    device_count: usize,
    ttl: u32,
) -> Option<SystemView> {
    let mut filtered: Option<SystemView> = None;
    for origin in 0..device_count {
        if origin == node {
            continue;
        }
        let device = DeviceId(origin as u32);
        if matches!(cp.age(node, device), Some(age) if age > ttl) {
            filtered
                .get_or_insert_with(|| cp.view(node).clone())
                .clear_slot(device);
        }
    }
    filtered
}

/// The round phases, in the order [`run_span`] calls them each round:
/// `inject_phase` (while injections are queued), `fault_phase` (while a
/// fault plan is installed), `begin_round`, `comms`, `plan`, `end_round`.
impl Driver {
    fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    fn has_injections(&self) -> bool {
        !self.injections.is_empty()
    }

    fn inject_phase(&mut self, now: SimTime) {
        // Drain everything due this round, in queue order. Arrivals are
        // spliced into the trace exactly where a batch run would have
        // sorted them: at the upper bound of `(arrival, device)`, which
        // is always at or past the delivery cursor because an event's
        // absorbing round starts after every already-delivered arrival.
        let mut absorbed: u64 = 0;
        while matches!(self.injections.front(), Some((r, _)) if *r <= self.rounds) {
            let (_, injection) = self.injections.pop_front().expect("front checked");
            absorbed += 1;
            match injection {
                Injection::Arrival(req) => {
                    self.obs
                        .event(self.rounds, Subsystem::Online, "arrival", || {
                            format!(
                                "device={} arrival_us={}",
                                req.device.0,
                                req.arrival.as_micros()
                            )
                        });
                    let key = (req.arrival, req.device);
                    let idx = self
                        .requests
                        .partition_point(|r| (r.arrival, r.device) <= key)
                        .max(self.next_request);
                    self.requests.insert(idx, req);
                }
                Injection::Completion(device) => {
                    self.obs
                        .event(self.rounds, Subsystem::Online, "completion", || {
                            format!("device={}", device.0)
                        });
                    // The DI's own interlock arbitrates: a minDCD-unsafe
                    // early-off is refused (and counted), a completed
                    // instance simply turns off.
                    self.dis[device.index()].command(now, false);
                }
                Injection::CapChange(cap) => {
                    self.obs
                        .event(self.rounds, Subsystem::Online, "cap-change", || {
                            format!("profile={}", if cap.is_some() { "set" } else { "cleared" })
                        });
                    for planner in &mut self.planners {
                        planner.set_admission_cap(cap.clone());
                    }
                }
            }
        }
        if absorbed > 0 {
            self.obs.add(Counter::OnlineEventsAbsorbed, absorbed);
            self.obs.observe(Hist::AbsorbedPerBoundary, absorbed);
        }
    }

    fn fault_phase(&mut self, now: SimTime) {
        // Stateless re-derivation from the plan: the fault set for a
        // round is a pure function of `now`, so checkpoints never need
        // to carry it.
        self.faults.down_at(now, &mut self.down);
        self.outage = self.faults.outage_at(now);
        let down_count = self.down.iter().filter(|&&d| d).count();
        if self.uses_cp {
            self.cp.set_round_faults(&self.down, self.outage);
        }
        self.resilience.record_round(down_count, self.outage);
        let fault_active = down_count > 0 || self.outage;
        if self.outage {
            self.obs.add(Counter::CpOutageRounds, 1);
        }
        // Flight events only on the edges — the Fault subsystem triggers
        // the recorder's auto-dump, which wants the onset, not a record
        // per faulty round.
        if fault_active && !self.fault_active_last {
            let outage = self.outage;
            self.obs
                .event(self.rounds, Subsystem::Fault, "fault-active", || {
                    format!("down_nodes={down_count} outage={outage}")
                });
        } else if !fault_active && self.fault_active_last {
            self.obs
                .event(self.rounds, Subsystem::Fault, "fault-cleared", || {
                    "recovery clock started".to_string()
                });
        }
        if self.fault_active_last && !fault_active {
            // The fault cleared this round: the recovery clock runs
            // until the divergence probe sees the fleet re-agree.
            self.recovery_since = Some(self.rounds);
        } else if fault_active {
            self.recovery_since = None;
        }
        self.fault_active_last = fault_active;
    }

    fn begin_round(&mut self, now: SimTime) {
        // 1. Deliver user requests that arrived up to this round. The
        // DI anchors the activity window at the round boundary: with a
        // 2-second CP period this costs the user at most one round and
        // keeps all deadlines round-aligned, so forced starts and
        // releases swap within a single round instead of overlapping.
        while self.next_request < self.requests.len()
            && self.requests[self.next_request].arrival <= now
        {
            let req = self.requests[self.next_request];
            self.dis[req.device.index()]
                .handle_request(now, &req)
                .expect("request routed to its own device");
            self.delivered += 1;
            self.next_request += 1;
        }

        // 2. Advance duty-cycle bookkeeping.
        for di in &mut self.dis {
            di.advance(now);
        }

        // 3. Every node's status record for this round's publish.
        self.scratch.statuses.clear();
        self.scratch
            .statuses
            .extend(self.dis.iter_mut().map(|di| di.publish(now)));
        self.scratch.seqs.clear();
        self.scratch
            .seqs
            .extend(self.dis.iter().map(DeviceInterface::seq));
    }

    /// One whole CP round: publish, MiniCast floods (packet CP), every
    /// view row's delivery in RNG order, then the round's statistics.
    fn comms(&mut self) {
        if self.uses_cp {
            self.cp.round(&self.scratch.statuses, &self.scratch.seqs);
        }
    }

    fn plan(&mut self, now: SimTime) {
        // 4. Execution plane: per-device decisions.
        let n = self.dis.len();
        let ttl = self.staleness_ttl;
        let dis = &mut self.dis;
        let cp = &self.cp;
        let planners = &mut self.planners;
        let scratch = &mut self.scratch;
        match &self.config.strategy {
            Strategy::Coordinated(plan_cfg) => {
                scratch.hashes.clear();
                scratch.groups.clear();
                scratch.demands.clear();
                scratch.live_plans = 0;
                scratch.plan_hashes.clear();
                scratch.node_plan.clear();

                if self.reference_planning {
                    // Naive reference: the paper's literal formulation —
                    // every node runs the full planner on its own view.
                    for (i, planner) in planners.iter_mut().enumerate() {
                        // The TTL filter must match the memoized path's
                        // exactly, or the differential oracle would flag
                        // a staleness divergence as a planning bug.
                        let filtered = ttl.and_then(|t| ttl_filtered_view(cp, i, n, t));
                        let view = filtered.as_ref().unwrap_or_else(|| cp.view(i));
                        // Fresh buffers on purpose: the oracle does not
                        // share the fast path's plan recycling.
                        let (idx, slot, _) = scratch.next_plan();
                        *slot = planner.plan(view, now);
                        scratch.node_plan.push(idx);
                    }
                } else {
                    // Memoized fast path: group nodes directly by
                    // their view-pool handle — two nodes share a
                    // handle exactly when their views are identical,
                    // so no per-round hashing is involved at all — and
                    // run the planner once per distinct (view, level).
                    // Under an ideal CP every node holds the same
                    // view, so the planner runs exactly once; under
                    // loss the common converged case collapses the
                    // same way. The demand rate — the only other O(n)
                    // per-node view scan — is memoized per handle too,
                    // keeping the whole plane at O(distinct views)
                    // instead of O(n). Consecutive nodes almost always
                    // share a group (all of them, under an ideal CP),
                    // so remember the previous node's resolution and
                    // skip the maps entirely on a match.
                    let mut prev_demand: Option<(u32, f64)> = None;
                    let mut prev_group: Option<((u32, u64), usize)> = None;
                    for (i, planner) in planners.iter_mut().enumerate() {
                        // Ghost-record aging: a node holding expired
                        // foreign records plans on a filtered copy and
                        // bypasses the handle-keyed memo (its effective
                        // view no longer matches its pool handle).
                        if let Some(t) = ttl {
                            if let Some(view) = ttl_filtered_view(cp, i, n, t) {
                                let (idx, slot, _) = scratch.next_plan();
                                *slot = planner.plan(&view, now);
                                scratch.node_plan.push(idx);
                                continue;
                            }
                        }
                        let view = cp.view(i);
                        let handle = cp.view_handle(i);
                        let demand = match prev_demand {
                            Some((prev_h, d)) if prev_h == handle => d,
                            _ => match scratch.demands.get(&handle) {
                                Some(&d) => d,
                                None => {
                                    let d = demand_rate_kw(view);
                                    scratch.demands.insert(handle, d);
                                    d
                                }
                            },
                        };
                        prev_demand = Some((handle, demand));
                        let level = planner.advance_level(demand, now);
                        let key = (handle, level.to_bits());
                        let plan_idx = match prev_group {
                            Some((prev_key, idx)) if prev_key == key => idx,
                            _ => match scratch.groups.get(&key) {
                                Some(&idx) => idx,
                                None => {
                                    let (idx, slot, kernel) = scratch.next_plan();
                                    planner.plan_at_level(view, now, kernel, slot);
                                    scratch.groups.insert(key, idx);
                                    idx
                                }
                            },
                        };
                        prev_group = Some((key, plan_idx));
                        scratch.node_plan.push(plan_idx);
                    }
                }

                // Hash each distinct plan once; the digest and the
                // divergence probe both reuse these.
                scratch.plan_hashes.extend(
                    scratch.plans[..scratch.live_plans]
                        .iter()
                        .map(|p| p.schedule.content_hash()),
                );

                let adopt_placements = matches!(plan_cfg.rule, SchedulingRule::BalancedPlacement);
                for (i, di) in dis.iter_mut().enumerate() {
                    let own = DeviceId(i as u32);
                    let plan = &scratch.plans[scratch.node_plan[i]];
                    self.schedule_digest = fold_digest(
                        self.schedule_digest,
                        scratch.plan_hashes[scratch.node_plan[i]],
                    );
                    // Placement rules publish the node's own committed
                    // start, making assignments sticky under loss.
                    if adopt_placements && di.is_active() {
                        di.set_planned_start(plan.start_of(own));
                    }
                    let mut on = plan.schedule.is_on(own);
                    // Local safety overrides: a DI never lets *its own*
                    // device miss its obligation because of the network,
                    // and never cuts its own instance short. The forcing
                    // rule mirrors the planner's (strict threshold).
                    let cycler = di.cycler();
                    if cycler.is_active() {
                        let guard = plan_cfg.laxity_guard.as_micros() as i64;
                        if matches!(cycler.laxity_micros(now), Some(l) if l < guard) {
                            on = true;
                        }
                    }
                    if cycler.is_on() && !cycler.instance_complete(now) {
                        on = true;
                    }
                    di.command(now, on);
                }
                // The divergence probe inspects each distinct plan once;
                // per-node hashing would rebuild the identical set.
                scratch.hashes.extend(scratch.plan_hashes.iter().copied());
                if scratch.hashes.len() > 1 {
                    self.divergent_rounds += 1;
                    let distinct = scratch.hashes.len();
                    self.obs
                        .event(self.rounds, Subsystem::Planner, "divergent", || {
                            format!("distinct_schedules={distinct}")
                        });
                }
                // Recovery clock: first fully-agreed round after the
                // fault cleared closes the re-agreement transient.
                if let Some(since) = self.recovery_since {
                    if scratch.hashes.len() <= 1 {
                        let took = self.rounds - since;
                        self.resilience.record_recovery(took);
                        self.recovery_since = None;
                        self.obs
                            .event(self.rounds, Subsystem::Sim, "re-agreed", || {
                                format!("recovery_rounds={took}")
                            });
                    }
                }
            }
            Strategy::Uncoordinated => {
                for di in dis.iter_mut() {
                    let cycler = di.cycler();
                    let on = (cycler.is_active() && !cycler.owed(now).is_zero())
                        || (cycler.is_on() && !cycler.instance_complete(now));
                    di.command(now, on);
                }
            }
            Strategy::Centralized {
                controller,
                crash_at,
                ..
            } => {
                let crashed = crash_at.is_some_and(|c| now >= c);
                let schedule: Schedule = if crashed {
                    Schedule::empty()
                } else {
                    planners[0].plan(cp.view(controller.index()), now).schedule
                };
                for (i, di) in dis.iter_mut().enumerate() {
                    if crashed {
                        // No commands arrive; devices hold their last
                        // commanded state (the interlock still refuses
                        // early-offs on deactivation paths).
                        let keep = self.last_command[i];
                        di.command(now, keep);
                        continue;
                    }
                    // Command dissemination shares the CP's fate: under
                    // a lossy model some devices keep their previous
                    // command this round.
                    let heard = i == controller.index() || cp.age(i, *controller) == Some(0);
                    if heard {
                        self.last_command[i] = schedule.is_on(DeviceId(i as u32));
                    }
                    let mut on = self.last_command[i];
                    let cycler = di.cycler();
                    if cycler.is_on() && !cycler.instance_complete(now) {
                        on = true;
                    }
                    di.command(now, on);
                }
            }
        }
    }

    fn end_round(&mut self, now: SimTime) {
        self.rounds += 1;

        // Attribute any misses this round produced to the fault classes
        // active while it ran (only under a fault plan — the counter
        // scan is pure overhead otherwise).
        if !self.faults.is_empty() {
            let total: u32 = self
                .dis
                .iter()
                .map(|di| di.counters().deadline_misses)
                .sum();
            let delta = total - self.last_miss_total;
            if delta > 0 {
                self.resilience.attribute_misses(
                    u64::from(delta),
                    self.down.contains(&true),
                    self.outage,
                );
            }
            self.last_miss_total = total;
        }

        // 5. Record the load (schedulable + Type-1 background).
        let background_kw = self.background.as_ref().map_or(0.0, |b| b.value_at(now));
        let load_kw: f64 =
            self.dis.iter().map(|di| di.power().as_kw()).sum::<f64>() + background_kw;
        if (load_kw - self.last_load_kw).abs() > 1e-12 || now == SimTime::ZERO {
            self.trace.record(now, load_kw);
            self.last_load_kw = load_kw;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_device::duty_cycle::DutyCycleConstraints;
    use han_workload::burst;

    fn small_config(strategy: Strategy, cp: CpModel) -> SimulationConfig {
        SimulationConfig {
            fleet: FleetSpec::uniform(10, 1.0, DutyCycleConstraints::paper()).expect("valid fleet"),
            duration: SimDuration::from_mins(40),
            round_period: SimDuration::from_secs(2),
            strategy,
            cp,
            seed: 1,
        }
    }

    fn run(strategy: Strategy, cp: CpModel, requests: Vec<Request>) -> SimulationOutcome {
        HanSimulation::new(small_config(strategy, cp), requests)
            .expect("valid config")
            .run()
    }

    #[test]
    fn burst_peak_halves_under_coordination() {
        // 8 simultaneous requests, each 15-of-30 min, arriving exactly on a
        // round boundary: the coordinated plane serves 4 + 4.
        let reqs = burst(SimTime::from_mins(1), 8);
        let unco = run(Strategy::Uncoordinated, CpModel::Ideal, reqs.clone());
        let coord = run(Strategy::coordinated(), CpModel::Ideal, reqs);
        let end = SimTime::from_mins(40);
        let peak_u = unco.trace.peak(SimTime::ZERO, end);
        let peak_c = coord.trace.peak(SimTime::ZERO, end);
        assert_eq!(peak_u, 8.0, "uncoordinated stacks the whole burst");
        assert!(
            peak_c <= 4.0 + 1e-9,
            "coordination should halve the burst peak, got {peak_c}"
        );
        // Same energy delivered (obligations identical).
        assert!(
            (unco.energy_kwh - coord.energy_kwh).abs() < 0.05,
            "energy differs: {} vs {}",
            unco.energy_kwh,
            coord.energy_kwh
        );
        // Everyone served, nobody missed.
        assert_eq!(coord.deadline_misses, 0);
        assert_eq!(unco.deadline_misses, 0);
        assert_eq!(coord.windows_served, 8);
    }

    #[test]
    fn coordinated_schedules_agree_under_ideal_cp() {
        let reqs = burst(SimTime::from_mins(1), 6);
        let coord = run(Strategy::coordinated(), CpModel::Ideal, reqs);
        assert_eq!(
            coord.divergent_rounds, 0,
            "identical views must give identical schedules"
        );
        assert_eq!(coord.refused_early_off, 0);
    }

    #[test]
    fn lossy_cp_does_not_break_guarantees() {
        let reqs = burst(SimTime::from_mins(1), 8);
        let coord = run(
            Strategy::coordinated(),
            CpModel::LossyRound {
                miss_probability: 0.3,
            },
            reqs,
        );
        assert_eq!(
            coord.deadline_misses, 0,
            "local safety overrides must protect obligations under loss"
        );
        assert_eq!(coord.windows_served, 8);
    }

    #[test]
    fn centralized_strategy_serves_burst() {
        let reqs = burst(SimTime::from_mins(1), 8);
        let cent = run(
            Strategy::Centralized {
                controller: DeviceId(0),
                plan: crate::algorithm::PlanConfig::default(),
                crash_at: None,
            },
            CpModel::Ideal,
            reqs,
        );
        assert_eq!(cent.deadline_misses, 0);
        assert_eq!(cent.windows_served, 8);
        let peak = cent.trace.peak(SimTime::ZERO, SimTime::from_mins(40));
        assert!(peak <= 4.0 + 1e-9, "centralized also staggers, got {peak}");
    }

    #[test]
    fn deterministic_given_seed() {
        let reqs = burst(SimTime::from_mins(1), 5);
        let a = run(
            Strategy::coordinated(),
            CpModel::LossyRecord {
                miss_probability: 0.2,
            },
            reqs.clone(),
        );
        let b = run(
            Strategy::coordinated(),
            CpModel::LossyRecord {
                miss_probability: 0.2,
            },
            reqs,
        );
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.divergent_rounds, b.divergent_rounds);
    }

    #[test]
    fn no_requests_no_load() {
        let out = run(Strategy::coordinated(), CpModel::Ideal, vec![]);
        assert_eq!(out.energy_kwh, 0.0);
        assert_eq!(out.requests_delivered, 0);
        assert_eq!(out.trace.peak(SimTime::ZERO, SimTime::from_mins(40)), 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small_config(Strategy::coordinated(), CpModel::Ideal);
        cfg.duration = SimDuration::from_micros(1);
        assert!(matches!(
            HanSimulation::new(cfg, vec![]),
            Err(ScenarioError::DurationTooShort { .. })
        ));

        let mut cfg = small_config(Strategy::coordinated(), CpModel::Ideal);
        cfg.round_period = SimDuration::ZERO;
        assert!(matches!(
            HanSimulation::new(cfg, vec![]),
            Err(ScenarioError::ZeroRoundPeriod)
        ));

        let cfg = small_config(
            Strategy::Centralized {
                controller: DeviceId(99),
                plan: crate::algorithm::PlanConfig::default(),
                crash_at: None,
            },
            CpModel::Ideal,
        );
        assert!(matches!(
            HanSimulation::new(cfg, vec![]),
            Err(ScenarioError::ControllerOutOfRange { .. })
        ));

        let cfg = small_config(Strategy::coordinated(), CpModel::Ideal);
        let bad = vec![Request::new(DeviceId(42), SimTime::ZERO)];
        assert!(matches!(
            HanSimulation::new(cfg, bad),
            Err(ScenarioError::UnknownDevice { .. })
        ));

        // A packet topology smaller than the fleet is a typed error, not
        // the communication plane's assert.
        let mut cfg = small_config(Strategy::coordinated(), CpModel::paper_packet(0));
        cfg.fleet = FleetSpec::uniform(30, 1.0, DutyCycleConstraints::paper()).unwrap();
        assert!(matches!(
            HanSimulation::new(cfg, vec![]),
            Err(ScenarioError::TopologyTooSmall {
                nodes: 26,
                device_count: 30
            })
        ));

        // Same for an out-of-range loss probability.
        let cfg = small_config(
            Strategy::coordinated(),
            CpModel::LossyRound {
                miss_probability: 1.5,
            },
        );
        assert!(matches!(
            HanSimulation::new(cfg, vec![]),
            Err(ScenarioError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn invalid_st_config_is_a_typed_error_not_a_round_panic() {
        let cp = CpModel::Packet {
            st: han_st::StConfig {
                n_tx: 0,
                ..han_st::StConfig::default()
            },
            topology: han_net::flocklab::flocklab26(0),
        };
        let err = HanSimulation::new(small_config(Strategy::coordinated(), cp), vec![])
            .expect_err("n_tx = 0 is rejected up front");
        assert_eq!(
            err,
            ScenarioError::InvalidPacketConfig {
                reason: "n_tx must be at least 1".into()
            }
        );
    }

    #[test]
    fn topology_too_large_for_the_round_is_a_typed_error() {
        // 64 data phases plus the sync phase need 2.6 s of a 2 s round.
        let cp = CpModel::Packet {
            st: han_st::StConfig::default(),
            topology: han_net::generators::grid(
                8,
                8,
                10.0,
                han_radio::channel::ChannelModel::UnitDisk { range_m: 15.0 },
            ),
        };
        let err = HanSimulation::new(small_config(Strategy::coordinated(), cp), vec![])
            .expect_err("a 64-node round is rejected up front");
        assert_eq!(
            err.to_string(),
            "invalid packet CP configuration: 64 nodes need 2.600s of airtime \
             but the 2.000s round fits only 49 data phases"
        );
    }

    #[test]
    fn staggered_load_rises_in_steps() {
        // A burst of 6 identical obligations has feasibility floor C = 3:
        // the coordinated load never jumps by more than 3 kW while the
        // uncoordinated baseline cliffs by the full 6 kW.
        let reqs = burst(SimTime::from_mins(1), 6);
        let coord = run(Strategy::coordinated(), CpModel::Ideal, reqs.clone());
        let max_rise_coord = max_trace_rise(&coord.trace);
        assert!(
            max_rise_coord <= 3.0 + 1e-9,
            "coordinated load jumped by {max_rise_coord} kW"
        );
        let unco = run(Strategy::Uncoordinated, CpModel::Ideal, reqs);
        let max_rise_unco = max_trace_rise(&unco.trace);
        assert_eq!(max_rise_unco, 6.0, "baseline stacks the burst in one step");
    }

    fn max_trace_rise(trace: &han_metrics::LoadTrace) -> f64 {
        trace
            .points()
            .windows(2)
            .map(|w| w[1].1 - w[0].1)
            .fold(0.0, f64::max)
    }

    #[test]
    fn background_load_is_added_but_not_scheduled() {
        let reqs = burst(SimTime::from_mins(1), 4);
        let mut sim =
            HanSimulation::new(small_config(Strategy::coordinated(), CpModel::Ideal), reqs)
                .unwrap();
        sim.set_background(han_metrics::LoadTrace::from_pulses([(
            SimTime::from_mins(5),
            SimDuration::from_mins(10),
            3.0,
        )]));
        let out = sim.run();
        // Background shows in the totals…
        let at_burst = out.trace.value_at(SimTime::from_mins(6));
        assert!(at_burst >= 3.0, "background missing, got {at_burst}");
        // …but the scheduler is untouched: obligations unchanged.
        assert_eq!(out.deadline_misses, 0);
        assert_eq!(out.windows_served, 4);
        // Energy includes the 0.5 kWh background pulse.
        assert!(
            (out.energy_kwh - (4.0 * 0.25 + 0.5)).abs() < 0.05,
            "energy {}",
            out.energy_kwh
        );
    }

    #[test]
    fn service_rate_metric() {
        let reqs = burst(SimTime::from_mins(1), 4);
        let out = run(Strategy::coordinated(), CpModel::Ideal, reqs);
        assert_eq!(out.service_rate(), 1.0);
    }

    #[test]
    fn node_churn_degrades_gracefully() {
        use crate::fault::FaultPlan;
        let reqs = burst(SimTime::from_mins(1), 8);
        let mut sim =
            HanSimulation::new(small_config(Strategy::coordinated(), CpModel::Ideal), reqs)
                .unwrap();
        sim.set_faults(FaultPlan::parse("down:3@5; up:3@15").unwrap())
            .unwrap();
        let out = sim.run();
        // The down node's DI still guards its own obligation locally.
        assert_eq!(out.deadline_misses, 0, "obligations must hold under churn");
        assert_eq!(out.windows_served, 8);
        // 10 minutes down at a 2 s round period = 300 down-node-rounds.
        assert_eq!(out.resilience.down_node_rounds, 300);
        assert!(out.resilience.availability(out.rounds, 10) < 1.0);
        // The fleet re-agreed after the revival.
        assert_eq!(out.resilience.recoveries.len(), 1);
    }

    #[test]
    fn fault_plans_apply_outages_under_loss() {
        use crate::fault::FaultPlan;
        let cfg = small_config(
            Strategy::coordinated(),
            CpModel::LossyRecord {
                miss_probability: 0.15,
            },
        );
        let mut sim = HanSimulation::new(cfg, burst(SimTime::from_mins(1), 6)).unwrap();
        sim.set_faults(FaultPlan::parse("down:1@4; up:1@9; outage:20-24").unwrap())
            .unwrap();
        let round = sim.run();
        assert!(round.resilience.outage_rounds > 0);
    }

    #[test]
    fn invalid_fault_plan_rejected() {
        use crate::fault::FaultPlan;
        let mut sim = HanSimulation::new(
            small_config(Strategy::coordinated(), CpModel::Ideal),
            vec![],
        )
        .unwrap();
        assert!(matches!(
            sim.set_faults(FaultPlan::parse("down:42@5").unwrap()),
            Err(ScenarioError::InvalidFaultPlan { .. })
        ));
    }

    #[test]
    fn run_fingerprint_matches_earlier_releases() {
        // `HANCKPT1` checkpoints and `HANSRV01` snapshots carry this
        // fingerprint and refuse to restore on a mismatch, so it must not
        // move: the expected value is what earlier releases computed.
        use crate::fault::FaultPlan;
        let config = SimulationConfig::paper(Strategy::coordinated(), 7);
        let requests = burst(SimTime::from_mins(1), 4);
        let faults = FaultPlan::parse("down:3@10; up:3@40; outage:60-65").unwrap();
        assert_eq!(
            run_fingerprint(&config, false, None, &requests, &faults),
            0xc9a5_7d02_94c3_26c2
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        use crate::fault::FaultPlan;
        let reqs = burst(SimTime::from_mins(1), 8);
        let build = || {
            let mut sim = HanSimulation::new(
                small_config(
                    Strategy::coordinated(),
                    CpModel::LossyRound {
                        miss_probability: 0.25,
                    },
                ),
                reqs.clone(),
            )
            .unwrap();
            sim.set_faults(FaultPlan::parse("down:2@3; up:2@8").unwrap())
                .unwrap();
            sim
        };
        let baseline = build().run();
        let (full, ckpt) = build().run_checkpointed(400);
        // Capture is a pure snapshot: the checkpointed run matches.
        assert_eq!(full.schedule_digest, baseline.schedule_digest);
        assert_eq!(full.trace, baseline.trace);
        // Serialize, restore, resume: still bit-identical.
        let bytes = ckpt.to_bytes();
        let restored = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(restored.round(), 400);
        let resumed = build().resume(&restored).unwrap();
        assert_eq!(resumed.schedule_digest, baseline.schedule_digest);
        assert_eq!(resumed.trace, baseline.trace);
        assert_eq!(format!("{:?}", resumed.cp), format!("{:?}", baseline.cp));
        assert_eq!(resumed.deadline_misses, baseline.deadline_misses);
        assert_eq!(resumed.resilience, baseline.resilience);
    }

    #[test]
    fn resume_rejects_foreign_config() {
        let reqs = burst(SimTime::from_mins(1), 4);
        let cfg = small_config(Strategy::coordinated(), CpModel::Ideal);
        let (_, ckpt) = HanSimulation::new(cfg.clone(), reqs.clone())
            .unwrap()
            .run_checkpointed(100);
        let mut other = cfg;
        other.seed = 999;
        let err = HanSimulation::new(other, reqs)
            .unwrap()
            .resume(&ckpt)
            .expect_err("different seed must not resume");
        assert!(matches!(err, CheckpointError::ConfigMismatch { .. }));
    }

    /// A lossy-CP run of 10 devices (8 active since minute 20)
    /// checkpointed after 1000 rounds, `corrupt`ed by hand and resumed
    /// under its own configuration: the restore-time checks must reject
    /// it as [`CheckpointError::Inconsistent`] with a reason naming
    /// `what`, before any round could panic on it.
    fn assert_rejected(what: &str, corrupt: impl FnOnce(&mut SimState)) {
        let build = || {
            HanSimulation::new(
                small_config(
                    Strategy::coordinated(),
                    CpModel::LossyRound {
                        miss_probability: 0.3,
                    },
                ),
                burst(SimTime::from_mins(20), 8),
            )
            .unwrap()
        };
        let (_, mut checkpoint) = build().run_checkpointed(1000);
        build()
            .resume(&checkpoint)
            .expect("the untouched state resumes");
        corrupt(&mut checkpoint.state);
        match build().resume(&checkpoint) {
            Err(CheckpointError::Inconsistent { reason }) => {
                assert!(reason.contains(what), "expected '{what}', got '{reason}'");
            }
            other => panic!("expected an Inconsistent error naming '{what}', got {other:?}"),
        }
    }

    /// The pooled store of a checkpointed lossy run.
    fn pooled(state: &mut SimState) -> (&mut crate::pool::ViewPoolExport, &mut Vec<u32>) {
        match &mut state.cp.store {
            crate::cp::StoreExport::Pooled { pool, handles } => (pool, handles),
            crate::cp::StoreExport::PerNode { .. } => unreachable!("lossy runs pool their views"),
        }
    }

    #[test]
    fn restore_rejects_per_device_counts_that_differ_from_the_fleet() {
        assert_rejected("device interface", |s| {
            s.dis.pop();
        });
        assert_rejected("planner", |s| s.planners.push((0.0, None)));
        assert_rejected("last-command", |s| {
            s.last_command.pop();
        });
    }

    #[test]
    fn restore_rejects_records_of_devices_outside_their_slot() {
        // The `SystemView::refresh` index (state.rs) a bad id would hit.
        assert_rejected("names another device", |s| {
            let di = s
                .dis
                .iter_mut()
                .find(|d| d.last_published.is_some())
                .unwrap();
            di.last_published.as_mut().unwrap().device = DeviceId(99);
        });
        assert_rejected("record of device 99 in view slot", |s| {
            let (pool, _) = pooled(s);
            let slot = pool.slots.iter_mut().find(|slot| slot.refs > 0).unwrap();
            let rec = slot.records.iter_mut().flatten().next().unwrap();
            rec.device = DeviceId(99);
        });
    }

    #[test]
    fn restore_rejects_a_trace_out_of_order_non_finite_or_ahead() {
        // The `LoadTrace::record` assertions (timeseries.rs) it would trip.
        assert_rejected("does not follow", |s| {
            s.trace.push((SimTime::from_mins(10), 2.0));
        });
        assert_rejected("non-finite load", |s| s.trace[1].1 = f64::NAN);
        assert_rejected("after the next round", |s| {
            s.trace.push((SimTime::from_mins(39), 1.0));
        });
    }

    #[test]
    fn restore_rejects_free_pool_ids_out_of_range_or_referenced() {
        // The free-list pop a bad id would index with (pool.rs).
        assert_rejected("free view slot", |s| {
            let (pool, _) = pooled(s);
            pool.free.push(pool.slots.len() as u32);
        });
        assert_rejected("free view slot", |s| {
            let (pool, handles) = pooled(s);
            pool.free.push(handles[0]);
        });
    }

    #[test]
    fn restore_rejects_handles_and_refcounts_that_disagree() {
        // The handle lookups (pool.rs) a dangling handle would index with.
        assert_rejected("outside the pool", |s| {
            let (_, handles) = pooled(s);
            handles[0] = 9_999;
        });
        assert_rejected("references but", |s| {
            let (pool, handles) = pooled(s);
            pool.slots[handles[0] as usize].refs += 1;
        });
    }

    #[test]
    fn restore_rejects_instants_after_the_next_round() {
        // The `SimTime` subtraction (sim/time.rs) closing a window whose
        // segment started in its future would underflow.
        assert_rejected("duty-cycle state", |s| {
            let di = s
                .dis
                .iter_mut()
                .find(|d| d.cycler.active.is_some())
                .unwrap();
            di.cycler.active.as_mut().unwrap().window_start = SimTime::from_mins(39);
        });
        assert_rejected("switched on after its window closed", |s| {
            let a = s
                .dis
                .iter_mut()
                .find_map(|d| d.cycler.active.as_mut())
                .unwrap();
            a.window_start = SimTime::ZERO;
            a.on_since = Some(SimTime::from_mins(31));
        });
        assert_rejected("last update", |s| {
            s.planners[0].1 = Some(SimTime::from_mins(39));
        });
        assert_rejected("beyond the", |s| s.next_round = u64::MAX);
    }

    #[test]
    fn staleness_ttl_ages_out_ghost_records() {
        use crate::fault::FaultPlan;
        let reqs = burst(SimTime::from_mins(1), 8);
        let run_ttl = |ttl: Option<u32>| {
            let mut sim = HanSimulation::new(
                small_config(Strategy::coordinated(), CpModel::Ideal),
                reqs.clone(),
            )
            .unwrap();
            // Node 5 dies at minute 5 and never comes back.
            sim.set_faults(FaultPlan::parse("down:5@5").unwrap())
                .unwrap();
            sim.set_staleness_ttl(ttl);
            sim.run()
        };
        let forever = run_ttl(None);
        let aged = run_ttl(Some(30));
        // Both keep every obligation (the dead node misses nothing here:
        // its own DI guard still runs).
        assert_eq!(forever.deadline_misses, 0);
        assert_eq!(aged.deadline_misses, 0);
        // The filter changes survivor planning once ghosts expire.
        assert_ne!(forever.schedule_digest, aged.schedule_digest);
    }
}
