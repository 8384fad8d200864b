//! `hansim` — command-line scenario runner.
//!
//! Runs one HAN load-management experiment — or a whole multi-home
//! neighborhood, optionally under a feeder coordination signal — and
//! prints a report (or the raw per-minute series as CSV).
//!
//! ```text
//! Usage: hansim [OPTIONS]
//!        hansim serve [OPTIONS]   long-lived online service mode (below)
//!        hansim city [OPTIONS]    city-scale sharded run (below)
//!   --rate <low|moderate|high|N>   aggregate request rate (default: high)
//!   --workload <poisson|daily>     arrival process (default: poisson;
//!                                  daily = time-of-day household profile,
//!                                  ignores --rate)
//!   --strategy <coordinated|uncoordinated|centralized|compare>
//!                                  scheduling strategy (default: compare;
//!                                  neighborhood runs always compare)
//!   --cp <ideal|lossy:P|ge:PGB,PBG|packet>
//!                                  communication plane (default: ideal;
//!                                  ge = Gilbert-Elliott burst loss with
//!                                  good/bad transition probabilities)
//!   --minutes <N>                  duration in minutes (default: 350)
//!   --devices <N>                  number of 1 kW devices (default: 26)
//!   --homes <N>                    homes on one feeder (default: 1 —
//!                                  today's single-home behavior; >1 runs
//!                                  the neighborhood layer, per-home seeds)
//!   --feeder <cap:KW|tou|congestion[:U]>
//!                                  broadcast a feeder coordination signal
//!                                  and iterate homes to convergence
//!   --faults <spec>                scripted fault plan, e.g.
//!                                  "down:3@10; up:3@40; outage:60-65"
//!                                  (see han_core::fault for the grammar);
//!                                  single home: resilience metrics are
//!                                  reported; neighborhood: every home
//!                                  suffers the same timeline
//!   --stale-ttl <N>                age out unrefreshed peer records after
//!                                  N rounds (single home only; off by
//!                                  default for bit-compatibility)
//!   --checkpoint <path>            run to completion but snapshot the
//!                                  mid-run state to <path> (single home,
//!                                  single strategy)
//!   --restore <path>               resume from a snapshot instead of
//!                                  simulating from round zero; the report
//!                                  is byte-identical to the uninterrupted
//!                                  run
//!   --seed <N>                     workload/channel seed (default: 0)
//!   --csv                          per-minute series as CSV (single home:
//!                                  per-strategy loads; neighborhood: the
//!                                  feeder aggregate per policy)
//!   --metrics-out <FILE>           dump the metrics registry as
//!                                  Prometheus text exposition after the
//!                                  run (single strategy; with --feeder,
//!                                  covers the coordination run)
//!   --trace <FILE>                 record per-phase spans and write a
//!                                  Chrome trace_event JSON document
//!                                  (open in chrome://tracing / Perfetto)
//!   --flight <FILE>                flight-recorder ring as JSONL; also
//!                                  auto-dumped the moment a fault fires
//!   --feeder-trace <FILE>          per-iteration feeder convergence
//!                                  trace as CSV (requires --feeder)
//!
//! Serve mode (`hansim serve`) runs one single-home scenario as a
//! daemon: simulated time advances against the chosen pace, telemetry
//! can be injected while it runs, and a newline-delimited TCP protocol
//! (STATUS / SCHEDULE / FEEDER / INJECT / ADVANCE / CHECKPOINT /
//! METRICS / DUMP / SHUTDOWN) answers queries. Scenario flags (--rate, --workload,
//! --minutes, --devices, --cp, --faults, --stale-ttl, --seed)
//! apply as above; --strategy must name a single strategy (default:
//! coordinated). Serve-specific flags:
//!
//!   --listen <ADDR>                serve the protocol on ADDR (e.g.
//!                                  127.0.0.1:7788); without it, serve
//!                                  runs in replay mode and exits at the
//!                                  end of the window
//!   --replay <FILE>                ingest a telemetry script up front
//!                                  (same grammar as INJECT) — a replayed
//!                                  run is byte-identical to a batch run
//!                                  whose trace carried the same events
//!   --checkpoint <PATH>            where snapshots go (CHECKPOINT with
//!                                  no path, and auto-checkpoints)
//!   --checkpoint-every <MIN>       auto-checkpoint every MIN simulated
//!                                  minutes (atomic rename into --checkpoint)
//!   --restore <PATH>               resume a killed daemon from its last
//!                                  snapshot; the finished report is
//!                                  byte-identical to an uninterrupted run
//!   --pace-us <N>                  one simulated round per N wall µs
//!                                  (2000000 = real time; default: free-run)
//!   --manual                       advance only on ADVANCE commands
//!   --flight <FILE>                auto-dump the flight-recorder ring
//!                                  here whenever a fault fires (DUMP
//!                                  over the socket works regardless)
//!
//! City mode (`hansim city`) runs feeders × homes-per-feeder homes on
//! shards that stream one home at a time (see han_core::city) and
//! prints the reduced feeder → substation → city report. The report is
//! identical for every valid `--shards` value, and per-home results are
//! digest-identical to the same homes run through the neighborhood
//! path. Scenario flags (--rate, --workload, --minutes, --devices, --cp,
//! --faults, --seed) apply as above, except that --minutes defaults to
//! 120 here. City-specific flags:
//!
//!   --feeders <N>                  feeders in the city (default: 4)
//!   --homes-per-feeder <M>         homes on each feeder (default: 4)
//!   --shards <K>                   shards to partition feeders across
//!                                  (default: auto; K must not exceed
//!                                  the feeder count)
//!   --substation-fanin <N>         feeders per substation in the
//!                                  reduction tree (default: 8)
//!   --workers <N>                  run the city as N worker processes
//!                                  (re-exec'd `hansim` children over
//!                                  HANFAGG1 pipes; default: in-process
//!                                  shards). The report is byte-identical
//!                                  either way and for every valid N.
//!   --mp-restart                   relaunch a dead worker once and
//!                                  re-read its partition (deterministic)
//!   --mp-deadline-ms <N>           per-worker read deadline before a
//!                                  silent worker becomes a typed error
//!                                  (default: 30000)
//!   --csv                          the city aggregate per strategy as
//!                                  per-minute CSV
//! ```

use smart_han::core::city::mp::{self, MpOptions, WorkerConnection, WorkerError};
use smart_han::core::city::{City, CityReport, CitySpec};
use smart_han::core::experiment::{build_simulation, summarize_outcome, SAMPLE_INTERVAL};
use smart_han::core::feeder::{FeederPolicy, FeederReport, FeederSignal};
use smart_han::core::online::{serve, OnlineDriver, OnlineError, Pace, ServeOptions};
use smart_han::metrics::report::series_csv;
use smart_han::metrics::tariff::{Billing, CostBreakdown};
use smart_han::obs::{Counter, Obs, ObsConfig, ObsSink};
use smart_han::prelude::*;
use smart_han::workload::signal::PowerCapProfile;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Everything that can go wrong between `argv` and a finished run — the
/// CLI's typed error (no `String` errors anywhere on the path).
#[derive(Debug)]
enum CliError {
    /// `--help` was requested: print usage, exit non-zero without an
    /// error line.
    Usage,
    /// A flag that needs a value was last on the command line.
    MissingValue { flag: &'static str },
    /// A flag value failed to parse.
    Invalid {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
    /// An unrecognized flag.
    UnknownFlag { flag: String },
    /// The composed scenario, neighborhood or policy was invalid.
    Scenario(ScenarioError),
    /// A checkpoint file failed to read back (truncated, foreign, or
    /// from a different configuration).
    Checkpoint(CheckpointError),
    /// A checkpoint file could not be read or written.
    Io { path: String, error: std::io::Error },
    /// The online service reported a typed failure (serve mode).
    Online(OnlineError),
    /// The multi-process city supervisor reported a typed failure
    /// (city mode with `--workers`).
    Worker(WorkerError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage => write!(f, "usage requested"),
            CliError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            CliError::Invalid {
                flag,
                value,
                expected,
            } => write!(f, "bad value '{value}' for {flag} (expected {expected})"),
            CliError::UnknownFlag { flag } => write!(f, "unknown flag '{flag}'"),
            CliError::Scenario(e) => write!(f, "{e}"),
            CliError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            CliError::Io { path, error } => write!(f, "{path}: {error}"),
            CliError::Online(e) => write!(f, "serve: {e}"),
            CliError::Worker(e) => write!(f, "city worker fleet: {e}"),
        }
    }
}

impl From<ScenarioError> for CliError {
    fn from(e: ScenarioError) -> Self {
        CliError::Scenario(e)
    }
}

impl From<OnlineError> for CliError {
    fn from(e: OnlineError) -> Self {
        CliError::Online(e)
    }
}

impl From<WorkerError> for CliError {
    fn from(e: WorkerError) -> Self {
        // A worker fleet failing on an invalid spec is the same misuse
        // as the in-process path failing on it — keep the diagnostic
        // identical so tests (and users) see one error, not two.
        match e {
            WorkerError::Scenario(inner) => CliError::Scenario(inner),
            other => CliError::Worker(other),
        }
    }
}

/// The communication-plane choice, kept symbolic until all flags are
/// parsed: `packet` seeds its channel model from `--seed`, which may
/// legally appear *after* `--cp` on the command line.
enum CpChoice {
    Ideal,
    Lossy(f64),
    /// Gilbert-Elliott burst loss: perfect good state, total loss in the
    /// bad state, with the given transition probabilities.
    Ge {
        p_good_to_bad: f64,
        p_bad_to_good: f64,
    },
    Packet,
}

impl CpChoice {
    /// Parses `--cp`.
    fn parse(value: &str) -> Result<CpChoice, CliError> {
        let invalid = || CliError::Invalid {
            flag: "--cp",
            value: value.to_string(),
            expected: "ideal|lossy:P|ge:PGB,PBG|packet",
        };
        let prob = |p: &str| p.parse().map_err(|_| invalid());
        if value == "ideal" {
            Ok(CpChoice::Ideal)
        } else if value == "packet" {
            Ok(CpChoice::Packet)
        } else if let Some(p) = value.strip_prefix("lossy:") {
            Ok(CpChoice::Lossy(prob(p)?))
        } else if let Some((gb, bg)) = value
            .strip_prefix("ge:")
            .and_then(|probs| probs.split_once(','))
        {
            Ok(CpChoice::Ge {
                p_good_to_bad: prob(gb)?,
                p_bad_to_good: prob(bg)?,
            })
        } else {
            Err(invalid())
        }
    }

    fn build(&self, seed: u64) -> CpModel {
        match self {
            CpChoice::Ideal => CpModel::Ideal,
            CpChoice::Lossy(p) => CpModel::LossyRound {
                miss_probability: *p,
            },
            CpChoice::Ge {
                p_good_to_bad,
                p_bad_to_good,
            } => CpModel::GilbertElliott {
                p_good_to_bad: *p_good_to_bad,
                p_bad_to_good: *p_bad_to_good,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            CpChoice::Packet => CpModel::paper_packet(seed),
        }
    }
}

/// The scenario flags every mode shares: `--rate`, `--workload`,
/// `--cp`, `--minutes`, `--devices`, `--faults` and `--seed`.
struct ScenarioArgs {
    rate: f64,
    /// `--workload daily`: the time-of-day household profile, which
    /// ignores `--rate`.
    daily: bool,
    cp: CpChoice,
    minutes: u64,
    devices: usize,
    faults: FaultPlan,
    seed: u64,
}

impl ScenarioArgs {
    /// The defaults, over a window of `minutes` (each mode has its own).
    fn new(minutes: u64) -> Self {
        ScenarioArgs {
            rate: 30.0,
            daily: false,
            cp: CpChoice::Ideal,
            minutes,
            devices: 26,
            faults: FaultPlan::empty(),
            seed: 0,
        }
    }

    /// The scenario the flags describe, named `"{mode} {rate}/h"`:
    /// neighborhood home names print the prefix.
    fn scenario(&self, mode: &str) -> Result<Scenario, ScenarioError> {
        let workload = if self.daily {
            Workload::Daily(DailyProfile::typical_household())
        } else {
            Workload::Poisson {
                rate_per_hour: self.rate,
            }
        };
        Scenario::builder(format!("{mode} {}/h", self.rate))
            .class(DeviceClass::paper(self.devices))
            .workload(workload)
            .duration(SimDuration::from_mins(self.minutes))
            .seed(self.seed)
            .build()
    }

    /// The communication plane, its packet channel seeded by `--seed`.
    fn cp(&self) -> CpModel {
        self.cp.build(self.seed)
    }
}

/// Reads the next command-line argument as the value of a flag.
type Value<'a> = dyn FnMut(&'static str) -> Result<String, CliError> + 'a;

/// The one flag loop of every mode: the shared scenario flags go into
/// `scenario`, `--help` asks for usage, and every other flag goes to the
/// mode's `own`, which returns `Ok(false)` for a flag it does not know.
fn parse_flags(
    argv: impl IntoIterator<Item = String>,
    scenario: &mut ScenarioArgs,
    mut own: impl FnMut(&str, &mut Value) -> Result<bool, CliError>,
) -> Result<(), CliError> {
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &'static str| it.next().ok_or(CliError::MissingValue { flag: name });
        match flag.as_str() {
            "--rate" => scenario.rate = parse_rate(&value("--rate")?)?,
            "--workload" => {
                scenario.daily = match value("--workload")?.as_str() {
                    "poisson" => false,
                    "daily" => true,
                    other => {
                        return Err(CliError::Invalid {
                            flag: "--workload",
                            value: other.to_string(),
                            expected: "poisson|daily",
                        })
                    }
                }
            }
            "--cp" => scenario.cp = CpChoice::parse(&value("--cp")?)?,
            "--minutes" => scenario.minutes = minutes(&mut value, "--minutes")?,
            "--devices" => scenario.devices = num(&mut value, "--devices")?,
            "--faults" => scenario.faults = parse_faults(value("--faults")?)?,
            "--seed" => scenario.seed = num(&mut value, "--seed")?,
            "--help" | "-h" => return Err(CliError::Usage),
            other => {
                if !own(other, &mut value)? {
                    return Err(CliError::UnknownFlag {
                        flag: other.to_string(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Reads the next argument as `flag`'s numeric value.
fn num<T: std::str::FromStr>(value: &mut Value, flag: &'static str) -> Result<T, CliError> {
    parse_num(&value(flag)?, flag)
}

/// Reads the next argument as a count of minutes. The simulation clock
/// counts microseconds in a `u64`, so a count it cannot hold is a bad
/// value rather than a window that wraps around.
fn minutes(value: &mut Value, flag: &'static str) -> Result<u64, CliError> {
    let text = value(flag)?;
    let mins: u64 = parse_num(&text, flag)?;
    match mins.checked_mul(SimDuration::from_mins(1).as_micros()) {
        Some(_) => Ok(mins),
        None => Err(CliError::Invalid {
            flag,
            value: text,
            expected: "a number of minutes the microsecond clock can hold",
        }),
    }
}

/// Checks a `--strategy` value against the names a mode accepts.
fn parse_strategy(
    value: String,
    accepted: &[&str],
    expected: &'static str,
) -> Result<String, CliError> {
    if accepted.contains(&value.as_str()) {
        Ok(value)
    } else {
        Err(CliError::Invalid {
            flag: "--strategy",
            value,
            expected,
        })
    }
}

struct Args {
    scenario: ScenarioArgs,
    strategy: String,
    homes: usize,
    feeder: Option<FeederSignal>,
    stale_ttl: Option<u32>,
    checkpoint: Option<String>,
    restore: Option<String>,
    csv: bool,
    metrics_out: Option<String>,
    trace: Option<String>,
    flight: Option<String>,
    feeder_trace: Option<String>,
}

impl Args {
    /// Whether any flag asked for an observability artifact
    /// (`--feeder-trace` reads the report directly, not the sink).
    fn wants_obs(&self) -> bool {
        self.metrics_out.is_some() || self.trace.is_some() || self.flight.is_some()
    }
}

fn parse_feeder(value: &str) -> Result<FeederSignal, CliError> {
    let invalid = |v: &str| CliError::Invalid {
        flag: "--feeder",
        value: v.to_string(),
        expected: "cap:KW|tou|congestion[:U]",
    };
    if let Some(kw) = value.strip_prefix("cap:") {
        let kw: f64 = kw.parse().map_err(|_| invalid(value))?;
        let profile = PowerCapProfile::constant(kw).map_err(CliError::Scenario)?;
        return Ok(FeederSignal::Capacity(profile));
    }
    match value {
        "tou" => Ok(FeederSignal::time_of_use(
            smart_han::metrics::TimeOfUseTariff::typical_residential(),
        )),
        "congestion" => Ok(FeederSignal::Congestion { utilization: 0.9 }),
        other => {
            if let Some(u) = other.strip_prefix("congestion:") {
                let utilization: f64 = u.parse().map_err(|_| invalid(value))?;
                Ok(FeederSignal::Congestion { utilization })
            } else {
                Err(invalid(value))
            }
        }
    }
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        scenario: ScenarioArgs::new(350),
        strategy: "compare".into(),
        homes: 1,
        feeder: None,
        stale_ttl: None,
        checkpoint: None,
        restore: None,
        csv: false,
        metrics_out: None,
        trace: None,
        flight: None,
        feeder_trace: None,
    };
    parse_flags(
        std::env::args().skip(1),
        &mut args.scenario,
        |flag, value| {
            match flag {
                "--strategy" => {
                    args.strategy = parse_strategy(
                        value("--strategy")?,
                        &["coordinated", "uncoordinated", "centralized", "compare"],
                        "coordinated|uncoordinated|centralized|compare",
                    )?
                }
                "--homes" => args.homes = num(value, "--homes")?,
                "--feeder" => args.feeder = Some(parse_feeder(&value("--feeder")?)?),
                "--stale-ttl" => args.stale_ttl = Some(num(value, "--stale-ttl")?),
                "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
                "--restore" => args.restore = Some(value("--restore")?),
                "--csv" => args.csv = true,
                "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
                "--trace" => args.trace = Some(value("--trace")?),
                "--flight" => args.flight = Some(value("--flight")?),
                "--feeder-trace" => args.feeder_trace = Some(value("--feeder-trace")?),
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok(args)
}

/// Parses `--rate`: a paper regime by name (its rate from
/// [`ArrivalRate::per_hour`]) or a number of requests per hour.
fn parse_rate(value: &str) -> Result<f64, CliError> {
    match value {
        "low" => Ok(ArrivalRate::Low.per_hour()),
        "moderate" => Ok(ArrivalRate::Moderate.per_hour()),
        "high" => Ok(ArrivalRate::High.per_hour()),
        n => n.parse().map_err(|_| CliError::Invalid {
            flag: "--rate",
            value: n.to_string(),
            expected: "low|moderate|high|N",
        }),
    }
}

/// Parses a `--faults` spec.
fn parse_faults(spec: String) -> Result<FaultPlan, CliError> {
    FaultPlan::parse(&spec).map_err(|_| CliError::Invalid {
        flag: "--faults",
        value: spec,
        expected: "e.g. \"down:3@10; up:3@40; outage:60-65; sigloss:80-90\"",
    })
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &'static str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::Invalid {
        flag,
        value: value.to_string(),
        expected: "a number",
    })
}

fn strategy_by_name(name: &str) -> Strategy {
    match name {
        "coordinated" => Strategy::coordinated(),
        "uncoordinated" => Strategy::Uncoordinated,
        "centralized" => Strategy::Centralized {
            controller: DeviceId(0),
            plan: PlanConfig::default(),
            crash_at: None,
        },
        other => unreachable!("validated earlier: {other}"),
    }
}

/// A reduction in percent, as the report lines print it: `−X%` when the
/// coordinated value is no higher than the baseline, `+X%` when it rose.
fn signed_reduction(percent: f64, decimals: usize) -> String {
    let sign = if percent < 0.0 { '+' } else { '−' };
    format!("{sign}{:.decimals$}%", percent.abs())
}

fn cost_line(cost: &CostBreakdown) -> String {
    format!(
        "energy {:.2} + demand {:.2} = {:.2}",
        cost.energy_cost,
        cost.demand_charge,
        cost.total()
    )
}

/// Builds the batch-mode observability sink when any obs flag asked for
/// one. Flight auto-dump targets `--flight` so a fault fires the ring to
/// disk mid-run; the final ring is written there again at exit.
fn obs_sink(args: &Args) -> Option<Arc<ObsSink>> {
    args.wants_obs().then(|| {
        Arc::new(ObsSink::new(ObsConfig {
            flight_auto_dump: args.flight.as_ref().map(PathBuf::from),
            trace_spans: args.trace.is_some(),
            ..ObsConfig::default()
        }))
    })
}

/// Writes whichever observability artifacts were requested, after the
/// run(s) feeding `sink` have finished.
fn write_obs_outputs(args: &Args, sink: &ObsSink) -> Result<(), CliError> {
    let io_err = |path: &str| {
        let path = path.to_string();
        move |error| CliError::Io { path, error }
    };
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, sink.exposition()).map_err(io_err(path))?;
    }
    if let Some(path) = &args.trace {
        let trace = sink.trace().expect("trace_spans set when --trace is given");
        trace.write_to(Path::new(path)).map_err(io_err(path))?;
    }
    if let Some(path) = &args.flight {
        sink.flight()
            .dump_to(Path::new(path))
            .map_err(io_err(path))?;
    }
    Ok(())
}

/// Runs one strategy the way `run_single_home` needs it: through the
/// checkpoint API when `--checkpoint`/`--restore` are in play, plainly
/// otherwise. Either way the returned result covers the full timeline —
/// a resumed run's report is byte-identical to the uninterrupted one.
/// An attached sink never changes any of that: observation is not state.
fn run_one(
    args: &Args,
    scenario: &Scenario,
    strategy: Strategy,
    sink: Option<&Arc<ObsSink>>,
) -> Result<StrategyResult, CliError> {
    let mut sim = build_simulation(
        scenario,
        strategy,
        args.scenario.cp(),
        &args.scenario.faults,
        args.stale_ttl,
    )?;
    if let Some(sink) = sink {
        sim.set_observer(Obs::new(sink.clone()));
    }
    let outcome = if let Some(path) = &args.restore {
        let bytes = std::fs::read(path).map_err(|error| CliError::Io {
            path: path.clone(),
            error,
        })?;
        let checkpoint = Checkpoint::from_bytes(&bytes).map_err(CliError::Checkpoint)?;
        sim.resume(&checkpoint).map_err(CliError::Checkpoint)?
    } else if let Some(path) = &args.checkpoint {
        // Snapshot at the midpoint of the timeline (rounds are 2 s, so
        // `minutes * 30 / 2` rounds in), then keep running: the printed
        // report is the full-run report, the file is the restart point.
        let (outcome, checkpoint) = sim.run_checkpointed(args.scenario.minutes * 15);
        std::fs::write(path, checkpoint.to_bytes()).map_err(|error| CliError::Io {
            path: path.clone(),
            error,
        })?;
        outcome
    } else {
        sim.run()
    };
    Ok(summarize_outcome(outcome, scenario.duration))
}

/// The original one-home path, byte-compatible with earlier releases
/// apart from the new cost columns.
fn run_single_home(args: &Args, scenario: &Scenario) -> Result<(), CliError> {
    if args.checkpoint.is_some() && args.restore.is_some() {
        return Err(CliError::Invalid {
            flag: "--restore",
            value: "with --checkpoint".into(),
            expected: "either --checkpoint or --restore, not both",
        });
    }
    if (args.checkpoint.is_some() || args.restore.is_some()) && args.strategy == "compare" {
        let flag = if args.checkpoint.is_some() {
            "--checkpoint"
        } else {
            "--restore"
        };
        return Err(CliError::Invalid {
            flag,
            value: "compare".into(),
            expected: "a single strategy (checkpoints hold one simulation's state)",
        });
    }
    if args.strategy == "compare" {
        for (flag, present) in [
            ("--metrics-out", args.metrics_out.is_some()),
            ("--trace", args.trace.is_some()),
            ("--flight", args.flight.is_some()),
        ] {
            if present {
                return Err(CliError::Invalid {
                    flag,
                    value: "compare".into(),
                    expected: "a single strategy (observability artifacts cover one simulation)",
                });
            }
        }
    }
    if args.feeder_trace.is_some() {
        return Err(CliError::Invalid {
            flag: "--feeder-trace",
            value: "without --feeder".into(),
            expected: "--feeder SIGNAL (the trace records feeder coordination iterates)",
        });
    }
    let named: Vec<(&str, Strategy)> = if args.strategy == "compare" {
        vec![
            ("uncoordinated", Strategy::Uncoordinated),
            ("coordinated", Strategy::coordinated()),
        ]
    } else {
        vec![(args.strategy.as_str(), strategy_by_name(&args.strategy))]
    };

    let sink = obs_sink(args);
    let mut results: Vec<(&str, StrategyResult)> = Vec::new();
    for (name, strategy) in &named {
        let r = run_one(args, scenario, strategy.clone(), sink.as_ref())?;
        results.push((*name, r));
    }
    if let Some(sink) = &sink {
        write_obs_outputs(args, sink)?;
    }

    if args.csv {
        let minutes: Vec<f64> = (0..results[0].1.samples.len()).map(|m| m as f64).collect();
        let series: Vec<(&str, &[f64])> = results
            .iter()
            .map(|(name, r)| (*name, r.samples.as_slice()))
            .collect();
        print!("{}", series_csv("minute", &minutes, &series));
        return Ok(());
    }

    let flags = &args.scenario;
    let workload_desc = if flags.daily {
        "time-of-day household".to_string()
    } else {
        format!("{}/h", flags.rate)
    };
    println!(
        "{} devices x 1 kW, {workload_desc} requests, {} min, seed {} (sampled every {})",
        flags.devices, flags.minutes, flags.seed, SAMPLE_INTERVAL
    );
    let billing = Billing::typical_residential();
    let end = SimTime::ZERO + scenario.duration;
    for (name, r) in &results {
        println!(
            "\n[{name}] peak {:.2} kW | mean {:.2} ± {:.2} kW | misses {} | served {} | \
             divergent rounds {}",
            r.summary.peak,
            r.summary.mean,
            r.summary.std_dev,
            r.outcome.deadline_misses,
            r.outcome.windows_served,
            r.outcome.divergent_rounds,
        );
        let cost = billing.cost(&r.outcome.trace, SimTime::ZERO, end);
        println!("         bill: {}", cost_line(&cost));
        if !flags.faults.is_empty() {
            let res = &r.outcome.resilience;
            println!(
                "         resilience: availability {:.4} | node-down rounds {} | \
                 outage rounds {} | misses while down/during outage {}/{}",
                res.availability(r.outcome.cp.rounds, flags.devices),
                res.down_node_rounds,
                res.outage_rounds,
                res.misses_while_down,
                res.misses_during_outage,
            );
            match res.mean_recovery_rounds() {
                Some(mean) => println!(
                    "         recovery: {} event(s), mean {:.1} rounds, worst {} rounds",
                    res.recoveries.len(),
                    mean,
                    res.worst_recovery_rounds().unwrap_or(0),
                ),
                None => println!("         recovery: no re-agreement events"),
            }
        }
        // The uncoordinated strategy runs no CP round: it gets no CP line.
        let ran_cp = r.outcome.cp.rounds > 0;
        if let Some(d) = r.outcome.cp.dissemination.as_ref().filter(|_| ran_cp) {
            println!(
                "         CP: reliability {:.2}%, radio duty cycle {:.1}%",
                d.mean_reliability() * 100.0,
                d.duty_cycle(SimDuration::from_secs(2)) * 100.0
            );
        }
    }
    if results.len() == 2 {
        let peak_red = smart_han::metrics::stats::reduction_percent(
            results[0].1.summary.peak,
            results[1].1.summary.peak,
        );
        let std_red = smart_han::metrics::stats::reduction_percent(
            results[0].1.summary.std_dev,
            results[1].1.summary.std_dev,
        );
        println!(
            "\ncoordination: peak {}, variation {}",
            signed_reduction(peak_red, 0),
            signed_reduction(std_red, 0)
        );
    }
    Ok(())
}

/// The `--feeder-trace` artifact: one CSV row per coordination iterate,
/// mirroring the `ConvergenceTrace` the report carries.
fn feeder_trace_csv(report: &FeederReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("iteration,feeder_peak_kw,change_norm_kw\n");
    for it in &report.trace.iterations {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6}",
            it.iteration, it.feeder_peak_kw, it.change_norm_kw
        );
    }
    out
}

fn print_feeder_run(report: &FeederReport, billing: &Billing) {
    println!(
        "\nfeeder signal: {} ({:?} iteration)",
        report.signal, report.iteration
    );
    for it in &report.trace.iterations {
        println!(
            "  iteration {}: feeder peak {:.2} kW, change {:.4} kW",
            it.iteration, it.feeder_peak_kw, it.change_norm_kw
        );
    }
    println!(
        "  stopped: {:?} after {} iteration(s); committed iterate {} \
         (0 = signal-free baseline)",
        report.trace.stop,
        report.iterations(),
        report.selected_iteration,
    );
    println!(
        "  feeder peak: {:.2} kW uncoordinated | {:.2} kW independent | {:.2} kW with signal \
         ({:+.1}% vs independent)",
        report.baseline.feeder_uncoordinated.peak,
        report.baseline.feeder_coordinated.peak,
        report.feeder.peak,
        -report.feeder_peak_vs_independent_percent(),
    );
    println!(
        "  deadline misses under signal: {}",
        report.total_deadline_misses()
    );
    println!(
        "  feeder bill with signal: {}",
        cost_line(&report.feeder_cost(billing))
    );
}

fn run_neighborhood(args: &Args, scenario: &Scenario) -> Result<(), CliError> {
    if args.strategy != "compare" {
        return Err(CliError::Invalid {
            flag: "--strategy",
            value: args.strategy.clone(),
            expected: "compare (neighborhood runs always compare)",
        });
    }
    for (flag, present) in [
        ("--stale-ttl", args.stale_ttl.is_some()),
        ("--checkpoint", args.checkpoint.is_some()),
        ("--restore", args.restore.is_some()),
    ] {
        if present {
            return Err(CliError::Invalid {
                flag,
                value: "with a neighborhood".into(),
                expected: "a single home (--homes 1, no --feeder)",
            });
        }
    }
    // Neighborhood observability covers the feeder coordination run —
    // the per-home runs build their simulations internally. Without a
    // signal there is nothing for the sink (or the trace CSV) to record.
    if args.feeder.is_none() {
        for (flag, present) in [
            ("--metrics-out", args.metrics_out.is_some()),
            ("--trace", args.trace.is_some()),
            ("--flight", args.flight.is_some()),
            ("--feeder-trace", args.feeder_trace.is_some()),
        ] {
            if present {
                return Err(CliError::Invalid {
                    flag,
                    value: "with a neighborhood".into(),
                    expected: "--feeder SIGNAL (neighborhood observability covers the \
                               coordination run)",
                });
            }
        }
    }
    let flags = &args.scenario;
    let mut hood = Neighborhood::uniform(
        format!("cli street x{}", args.homes),
        scenario,
        flags.cp(),
        args.homes,
    )?;
    if !flags.faults.is_empty() {
        // Every home suffers the same scripted timeline (homes fail
        // independently inside their own HANs).
        for home in &mut hood.homes {
            home.faults = flags.faults.clone();
        }
    }
    let report = hood.run()?;
    let feeder_run = match &args.feeder {
        Some(signal) => Some(hood.run_with(&FeederPolicy::new(signal.clone()))?),
        None => None,
    };

    if let Some(run) = &feeder_run {
        if let Some(sink) = obs_sink(args) {
            run.publish_obs(&Obs::new(sink.clone()));
            write_obs_outputs(args, &sink)?;
        }
        if let Some(path) = &args.feeder_trace {
            std::fs::write(path, feeder_trace_csv(run)).map_err(|error| CliError::Io {
                path: path.clone(),
                error,
            })?;
        }
    }

    if args.csv {
        let minutes: Vec<f64> = (0..report.feeder_samples_uncoordinated.len())
            .map(|m| m as f64)
            .collect();
        let mut series: Vec<(&str, &[f64])> = vec![
            ("uncoordinated", &report.feeder_samples_uncoordinated),
            ("coordinated", &report.feeder_samples_coordinated),
        ];
        if let Some(run) = &feeder_run {
            series.push(("with_signal", &run.feeder_samples));
        }
        print!("{}", series_csv("minute", &minutes, &series));
        return Ok(());
    }

    println!(
        "{}: {} homes x {} devices, {} min, seeds {}..{}",
        hood.name,
        args.homes,
        flags.devices,
        flags.minutes,
        flags.seed,
        flags.seed + args.homes as u64 - 1,
    );
    let billing = Billing::typical_residential();
    println!(
        "\n{:<18} {:>9} {:>9} {:>8} {:>10} {:>10}",
        "home", "peak w/o", "peak w/", "misses", "bill w/o", "bill w/"
    );
    for (home, (_, costs)) in report.homes.iter().zip(report.home_costs(&billing)) {
        let c = &home.comparison;
        println!(
            "{:<18} {:>9.2} {:>9.2} {:>8} {:>10.2} {:>10.2}",
            home.name,
            c.uncoordinated.summary.peak,
            c.coordinated.summary.peak,
            c.coordinated.outcome.deadline_misses,
            costs.uncoordinated.total(),
            costs.coordinated.total(),
        );
    }
    let feeder_costs = report.feeder_costs(&billing);
    println!(
        "\nfeeder: peak {:.2} → {:.2} kW ({}), coincidence {:.2} → {:.2}",
        report.feeder_uncoordinated.peak,
        report.feeder_coordinated.peak,
        signed_reduction(report.feeder_peak_reduction_percent(), 1),
        report.coincidence_factor_uncoordinated(),
        report.coincidence_factor_coordinated(),
    );
    println!(
        "feeder bill: {} → {}",
        cost_line(&feeder_costs.uncoordinated),
        cost_line(&feeder_costs.coordinated),
    );

    if let Some(run) = &feeder_run {
        print_feeder_run(run, &billing);
    }
    Ok(())
}

/// Serve-mode arguments: the single-home scenario flags plus the
/// daemon-specific ones.
struct ServeArgs {
    scenario: ScenarioArgs,
    strategy: String,
    stale_ttl: Option<u32>,
    listen: Option<String>,
    replay: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every_min: Option<u64>,
    restore: Option<String>,
    pace_us: Option<u64>,
    manual: bool,
    flight: Option<String>,
}

fn parse_serve_args() -> Result<ServeArgs, CliError> {
    let mut args = ServeArgs {
        scenario: ScenarioArgs::new(350),
        strategy: "coordinated".into(),
        stale_ttl: None,
        listen: None,
        replay: None,
        checkpoint: None,
        checkpoint_every_min: None,
        restore: None,
        pace_us: None,
        manual: false,
        flight: None,
    };
    parse_flags(
        std::env::args().skip(2),
        &mut args.scenario,
        |flag, value| {
            match flag {
                "--strategy" => {
                    args.strategy = parse_strategy(
                        value("--strategy")?,
                        &["coordinated", "uncoordinated", "centralized"],
                        "a single strategy (serve holds one simulation's state)",
                    )?
                }
                "--stale-ttl" => args.stale_ttl = Some(num(value, "--stale-ttl")?),
                "--listen" => args.listen = Some(value("--listen")?),
                "--replay" => args.replay = Some(value("--replay")?),
                "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
                "--checkpoint-every" => {
                    args.checkpoint_every_min = Some(minutes(value, "--checkpoint-every")?)
                }
                "--restore" => args.restore = Some(value("--restore")?),
                "--pace-us" => args.pace_us = Some(num(value, "--pace-us")?),
                "--manual" => args.manual = true,
                "--flight" => args.flight = Some(value("--flight")?),
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok(args)
}

/// The serve-mode final report, printed when the window completes.
/// Everything printed here is byte-identical between an uninterrupted
/// run and a kill/restore one (the daemon smoke test compares these
/// lines verbatim).
fn serve_report(outcome: smart_han::core::SimulationOutcome, minutes: u64) -> String {
    let r = summarize_outcome(outcome, SimDuration::from_mins(minutes));
    format!(
        "serve report: rounds={} digest={:016x} delivered={} served={} misses={} \
         refused={} divergent={} peak_kw={:.3} energy_kwh={:.3}",
        r.outcome.rounds,
        r.outcome.schedule_digest,
        r.outcome.requests_delivered,
        r.outcome.windows_served,
        r.outcome.deadline_misses,
        r.outcome.refused_early_off,
        r.outcome.divergent_rounds,
        r.summary.peak,
        r.outcome.energy_kwh,
    )
}

fn run_serve() -> Result<(), CliError> {
    let args = parse_serve_args()?;
    if args.listen.is_none() && args.replay.is_none() && args.restore.is_none() {
        return Err(CliError::Invalid {
            flag: "--listen",
            value: "absent".into(),
            expected: "--listen ADDR, --replay FILE or --restore PATH (serve needs a driver)",
        });
    }
    if args.checkpoint_every_min.is_some() && args.checkpoint.is_none() {
        return Err(CliError::Invalid {
            flag: "--checkpoint-every",
            value: "without --checkpoint".into(),
            expected: "--checkpoint PATH to name the snapshot file",
        });
    }
    let sim = build_simulation(
        &args.scenario.scenario("serve")?,
        strategy_by_name(&args.strategy),
        args.scenario.cp(),
        &args.scenario.faults,
        args.stale_ttl,
    )?;

    let mut driver = match &args.restore {
        Some(path) => OnlineDriver::load(sim, Path::new(path))?,
        None => OnlineDriver::new(sim),
    };
    // The daemon always carries a sink: METRICS and DUMP answer over the
    // socket, and a `--flight` path arms the fault-triggered auto-dump.
    let sink = Arc::new(ObsSink::new(ObsConfig {
        flight_auto_dump: args.flight.as_ref().map(PathBuf::from),
        ..ObsConfig::default()
    }));
    driver.attach_observability(sink.clone());

    let replay = match &args.replay {
        Some(path) => {
            let spec = std::fs::read_to_string(path).map_err(|error| CliError::Io {
                path: path.clone(),
                error,
            })?;
            smart_han::workload::telemetry::TelemetryEvent::parse_script(&spec)?
        }
        None => Vec::new(),
    };

    // Simulated minutes → rounds: one round per period (2 s).
    let rounds_per_min = 60_000_000 / SimDuration::from_secs(2).as_micros();
    let options = ServeOptions {
        listen: args.listen.clone(),
        replay,
        checkpoint_path: args.checkpoint.as_ref().map(std::path::PathBuf::from),
        checkpoint_every_rounds: args
            .checkpoint_every_min
            .map(|m| (m * rounds_per_min).max(1)),
        pace: if args.manual {
            Pace::Manual
        } else if let Some(us) = args.pace_us {
            Pace::Wall { us_per_round: us }
        } else {
            Pace::Free
        },
    };
    if let Some(addr) = &args.listen {
        eprintln!("hansim serve: listening on {addr}");
    }
    let outcome = serve(driver, &options)?;
    // Failed auto-checkpoints do not stop the run; replay mode has no
    // STATUS to show them, so report them on the way out.
    let failures = sink.registry().counter(Counter::OnlineCheckpointFailures);
    if failures > 0 {
        eprintln!("hansim serve: {failures} auto-checkpoint(s) failed to write");
    }
    match outcome {
        Some(outcome) => println!("{}", serve_report(outcome, args.scenario.minutes)),
        None => eprintln!("hansim serve: shut down mid-window (state in last checkpoint)"),
    }
    Ok(())
}

/// City-mode arguments (`hansim city …`).
struct CityArgs {
    scenario: ScenarioArgs,
    feeders: usize,
    homes_per_feeder: usize,
    shards: usize,
    substation_fanin: usize,
    csv: bool,
    /// `Some(n)`: run the city as `n` worker processes (`hansim
    /// city-worker` children). `None`: in-process shards.
    workers: Option<usize>,
    mp_restart: bool,
    mp_deadline_ms: u64,
}

/// Parses city-mode flags from `argv` — the tail of argv after the
/// subcommand. Taking the arguments (rather than reading `env::args`
/// here) lets the hidden `city-worker` entry point reuse the exact
/// parser on its own argv tail, so parent and worker derive the spec
/// from the *same* grammar and the handshake fingerprints can only
/// diverge on real version skew.
fn parse_city_args(argv: impl IntoIterator<Item = String>) -> Result<CityArgs, CliError> {
    let mut args = CityArgs {
        scenario: ScenarioArgs::new(120),
        feeders: 4,
        homes_per_feeder: 4,
        shards: 0,
        substation_fanin: 0,
        csv: false,
        workers: None,
        mp_restart: false,
        mp_deadline_ms: 30_000,
    };
    parse_flags(argv, &mut args.scenario, |flag, value| {
        match flag {
            "--feeders" => args.feeders = num(value, "--feeders")?,
            "--homes-per-feeder" => args.homes_per_feeder = num(value, "--homes-per-feeder")?,
            "--shards" => args.shards = num(value, "--shards")?,
            "--substation-fanin" => args.substation_fanin = num(value, "--substation-fanin")?,
            "--csv" => args.csv = true,
            "--workers" => args.workers = Some(num(value, "--workers")?),
            "--mp-restart" => args.mp_restart = true,
            "--mp-deadline-ms" => args.mp_deadline_ms = num(value, "--mp-deadline-ms")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(args)
}

/// Builds the city spec a set of parsed flags describes. Shared by the
/// parent (`hansim city`) and the hidden worker (`hansim city-worker`):
/// both sides derive the spec through this one function, which is what
/// makes the handshake fingerprint a real equivalence check.
fn city_spec(args: &CityArgs) -> Result<CitySpec, CliError> {
    let flags = &args.scenario;
    Ok(CitySpec::uniform(
        format!("cli city {}x{}", args.feeders, args.homes_per_feeder),
        &flags.scenario("city")?,
        flags.cp(),
        args.feeders,
        args.homes_per_feeder,
    )
    .with_seed(flags.seed)
    .with_shards(args.shards)
    .with_substation_fanin(args.substation_fanin)
    .with_faults(flags.faults.clone()))
}

/// Spawns `hansim city-worker <index> <count> <city flags…>` children
/// of the current executable, stdout piped back as the worker stream.
/// The original argv tail is passed through verbatim so the worker
/// re-derives the spec from the same flags (fingerprint-checked).
fn process_launcher(
    city_argv: Vec<String>,
) -> impl FnMut(&mp::WorkerTask) -> Result<WorkerConnection, String> {
    move |task| {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = std::process::Command::new(exe)
            .arg("city-worker")
            .arg(task.worker.to_string())
            .arg(task.workers.to_string())
            .args(&city_argv)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        Ok(WorkerConnection::new(stdout).with_shutdown(move || {
            // Kill is a no-op on an already-exited child; wait reaps it
            // either way so no fleet run leaves zombies behind.
            let _ = child.kill();
            let _ = child.wait();
        }))
    }
}

fn run_city() -> Result<(), CliError> {
    let city_argv: Vec<String> = std::env::args().skip(2).collect();
    let args = parse_city_args(city_argv.iter().cloned())?;
    let spec = city_spec(&args)?;
    let report = match args.workers {
        None => City::new(spec)?.run()?,
        Some(workers) => {
            let options = MpOptions::new(workers)
                .with_deadline(std::time::Duration::from_millis(args.mp_deadline_ms))
                .with_restart(args.mp_restart);
            let mut launch = process_launcher(city_argv);
            let (report, _stats) = mp::run_city_mp(&spec, &options, &Obs::off(), &mut launch)?;
            report
        }
    };
    print_city_report(&report, &args);
    Ok(())
}

/// The hidden worker half of `hansim city --workers N`: re-derives the
/// spec from the pass-through city flags and streams its feeder
/// partition to stdout as the `HANCITY1` protocol. Never invoked by
/// hand — absent from usage on purpose.
fn run_city_worker() -> Result<(), CliError> {
    let mut argv = std::env::args().skip(2);
    let parse_pos = |v: Option<String>, flag: &'static str| -> Result<usize, CliError> {
        let v = v.ok_or(CliError::MissingValue { flag })?;
        parse_num(&v, flag)
    };
    let worker = parse_pos(argv.next(), "city-worker <index>")?;
    let workers = parse_pos(argv.next(), "city-worker <count>")?;
    let args = parse_city_args(argv)?;
    let spec = city_spec(&args)?;
    let stdout = std::io::stdout().lock();
    let mut out = SabotagedWriter::from_env(std::io::BufWriter::new(stdout), worker);
    mp::serve_worker(&spec, worker, workers, &mut out).map_err(|e| match e {
        mp::ServeError::Scenario(inner) => CliError::Scenario(inner),
        mp::ServeError::BadWorkerCount { workers, feeders } => {
            CliError::Worker(WorkerError::BadWorkerCount { workers, feeders })
        }
        mp::ServeError::Io(error) => CliError::Io {
            path: "<stdout>".into(),
            error,
        },
    })
}

/// A byte-counting stdout wrapper that lets the CLI test battery script
/// worker failures from the *outside*: `HANSIM_CITY_WORKER_CRASH=I`
/// hard-exits worker `I` a few bytes into its first record frame, and
/// `HANSIM_CITY_WORKER_STALL=I` makes worker `I` hold the pipe open in
/// silence after its handshake. The variant `I:once:PATH` crashes only
/// while the flag file at `PATH` is absent (creating it), so a
/// `--mp-restart` relaunch succeeds. Sabotage exists only on this
/// hidden subcommand's write path — the protocol itself has no test
/// hooks.
struct SabotagedWriter<W: Write> {
    inner: W,
    written: usize,
    crash_at: Option<usize>,
    stall_at: Option<usize>,
}

impl<W: Write> SabotagedWriter<W> {
    fn from_env(inner: W, worker: usize) -> Self {
        let armed = |var: &str, at: usize| -> Option<usize> {
            let spec = std::env::var(var).ok()?;
            let mut parts = spec.splitn(3, ':');
            let index: usize = parts.next()?.parse().ok()?;
            if index != worker {
                return None;
            }
            if let (Some("once"), Some(flag)) = (parts.next(), parts.next()) {
                if std::path::Path::new(flag).exists() {
                    return None;
                }
                let _ = std::fs::write(flag, b"spent");
            }
            Some(at)
        };
        SabotagedWriter {
            inner,
            written: 0,
            crash_at: armed("HANSIM_CITY_WORKER_CRASH", mp::HANDSHAKE_LEN + 10),
            stall_at: armed("HANSIM_CITY_WORKER_STALL", mp::HANDSHAKE_LEN),
        }
    }
}

impl<W: Write> Write for SabotagedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n;
        if self.crash_at.is_some_and(|at| self.written >= at) {
            let _ = self.inner.flush();
            std::process::exit(17);
        }
        if self.stall_at.is_some_and(|at| self.written >= at) {
            let _ = self.inner.flush();
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Prints the reduced city report — CSV series or the pretty tables.
/// A pure function of `(report, parsed flags)`: nothing here depends on
/// how the report was computed, which is exactly why `--workers N`,
/// every `--shards K`, and the in-process default print identical bytes
/// (pinned by tests/cli_city.rs and tests/cli_city_mp.rs).
fn print_city_report(report: &CityReport, args: &CityArgs) {
    if args.csv {
        let minutes: Vec<f64> = (0..report.samples_uncoordinated.len())
            .map(|m| m as f64)
            .collect();
        print!(
            "{}",
            series_csv(
                "minute",
                &minutes,
                &[
                    ("uncoordinated", &report.samples_uncoordinated),
                    ("coordinated", &report.samples_coordinated),
                ],
            )
        );
        return;
    }

    println!(
        "{}: {} feeders x {} homes x {} devices = {} devices, {} min, seed {}",
        report.name,
        report.feeders.len(),
        args.homes_per_feeder,
        args.scenario.devices,
        report.devices,
        args.scenario.minutes,
        args.scenario.seed,
    );
    println!(
        "\n{:<8} {:>6} {:>9} {:>9} {:>8} {:>12}",
        "feeder", "homes", "peak w/o", "peak w/", "misses", "coincidence"
    );
    for f in &report.feeders {
        let unco = Summary::of(&f.samples_uncoordinated);
        let coord = Summary::of(&f.samples_coordinated);
        let coincidence = if f.sum_home_peaks_coordinated == 0.0 {
            1.0
        } else {
            coord.peak / f.sum_home_peaks_coordinated
        };
        println!(
            "f{:<7} {:>6} {:>9.2} {:>9.2} {:>8} {:>12.2}",
            f.feeder, f.homes, unco.peak, coord.peak, f.deadline_misses, coincidence,
        );
    }
    println!(
        "\n{:<8} {:>8} {:>9} {:>9} {:>12}",
        "subst.", "feeders", "peak w/o", "peak w/", "coincidence"
    );
    for s in &report.substations {
        println!(
            "s{:<7} {:>8} {:>9.2} {:>9.2} {:>12.2}",
            s.substation,
            s.feeders,
            s.uncoordinated.peak,
            s.coordinated.peak,
            s.coincidence_coordinated,
        );
    }
    let billing = Billing::typical_residential();
    let costs = report.costs(&billing);
    println!(
        "\ncity: peak {:.2} → {:.2} kW ({}), coincidence {:.2} → {:.2}",
        report.uncoordinated.peak,
        report.coordinated.peak,
        signed_reduction(report.peak_reduction_percent(), 1),
        report.coincidence_factor_uncoordinated(),
        report.coincidence_factor_coordinated(),
    );
    println!(
        "city totals: rounds {} | misses {} | served {} | divergent {} | energy {:.1} kWh",
        report.rounds,
        report.deadline_misses,
        report.windows_served,
        report.divergent_rounds,
        report.energy_coordinated_kwh,
    );
    println!(
        "city bill: {} → {} (save {:.1}%)",
        cost_line(&costs.uncoordinated),
        cost_line(&costs.coordinated),
        costs.savings_percent(),
    );
}

fn main() -> ExitCode {
    let outcome = match std::env::args().nth(1).as_deref() {
        Some("serve") => run_serve(),
        Some("city") => run_city(),
        // The hidden worker half of `city --workers N`. Failures go to
        // stderr with a bare exit — the parent's typed error is the
        // user-facing diagnostic, not this.
        Some("city-worker") => {
            return match run_city_worker() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("city-worker: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => run_batch(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Batch mode: one home, or a neighborhood of `--homes N` (with or
/// without a `--feeder` signal).
fn run_batch() -> Result<(), CliError> {
    let args = parse_args()?;
    let scenario = args.scenario.scenario("cli")?;
    match args.homes {
        0 => Err(ScenarioError::EmptyNeighborhood.into()),
        1 if args.feeder.is_none() => run_single_home(&args, &scenario),
        _ => run_neighborhood(&args, &scenario),
    }
}

fn fail(error: &CliError) -> ExitCode {
    if !matches!(error, CliError::Usage) {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: hansim [--rate low|moderate|high|N] [--workload poisson|daily] \
         [--strategy coordinated|uncoordinated|centralized|compare] \
         [--cp ideal|lossy:P|ge:PGB,PBG|packet] [--minutes N] \
         [--devices N] [--homes N] [--feeder cap:KW|tou|congestion[:U]] \
         [--faults SPEC] [--stale-ttl N] [--checkpoint PATH] [--restore PATH] \
         [--seed N] [--csv] [--metrics-out FILE] [--trace FILE] [--flight FILE] \
         [--feeder-trace FILE]\n       \
         hansim serve [scenario flags] [--listen ADDR] [--replay FILE] \
         [--checkpoint PATH] [--checkpoint-every MIN] [--restore PATH] \
         [--pace-us N] [--manual] [--flight FILE]\n       \
         hansim city [scenario flags; --minutes defaults to 120] [--feeders N] \
         [--homes-per-feeder M] [--shards K] [--substation-fanin N] [--workers N] \
         [--mp-restart] [--mp-deadline-ms N] [--csv]"
    );
    ExitCode::FAILURE
}
