//! The repository benchmark: one command, three tiers of the system.
//!
//! ```text
//! python3 perfbench/run.py --workload <ideal|lossy|packet>
//!                          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run measures all three tiers — `home` (the paper's home on the
//! round loop), `city` (a city of homes in-process and as a
//! worker-process fleet) and `serve` (the `hansim serve` daemon) —
//! because every run reports every metric. The workload is the
//! communication plane the tiers run on, which decides the layers they
//! load. The tiers' samples interleave over the whole of `--seconds`.
//! `--trace 0` prints the end-to-end metrics of untraced samples;
//! `--trace 1` alternates untraced and traced samples and prints the
//! per-layer metrics instead. The last stdout line is one JSON object;
//! any failed output check exits non-zero without it. See `README.md`.

mod city;
mod home;
mod probe;
mod serve;
mod sink;
mod stats;

use han_core::cp::CpModel;
use probe::HostSpeed;
use sink::SpanLog;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;

/// The host-speed probe's share of the loop, against the tiers' weights
/// (the home tier 1).
const PROBE_WEIGHT: f64 = 0.5;

/// A second seed, held out from tuning, for confirming later claims.
pub const CONFIRM_SEED: u64 = 9001;

/// The three tiers, in the order a run executes them: the in-process
/// city first, so its `VmHWM` is not raised by any earlier phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    City,
    Home,
    Serve,
}

impl Tier {
    const ALL: [Tier; 3] = [Tier::City, Tier::Home, Tier::Serve];

    fn name(self) -> &'static str {
        match self {
            Tier::City => "city",
            Tier::Home => "home",
            Tier::Serve => "serve",
        }
    }
}

/// The workloads: the communication plane every tier runs on. Each
/// loads different layers under the same tiers: the ideal CP leaves the
/// planner as the round's largest phase, `lossy:0.3` adds delivery rows
/// and view-pool forks, and the packet-level MiniCast CP runs `han_st`,
/// `han_radio` and `han_net`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cp {
    Ideal,
    Lossy,
    Packet,
}

impl Cp {
    const ALL: [Cp; 3] = [Cp::Ideal, Cp::Lossy, Cp::Packet];
    /// Whole-round miss probability of the lossy workload.
    const MISS_PROBABILITY: f64 = 0.3;

    pub fn name(self) -> &'static str {
        match self {
            Cp::Ideal => "ideal",
            Cp::Lossy => "lossy",
            Cp::Packet => "packet",
        }
    }

    /// The model of a home; `channel_seed` places the packet CP's links.
    pub fn model(self, channel_seed: u64) -> CpModel {
        match self {
            Cp::Ideal => CpModel::Ideal,
            Cp::Lossy => CpModel::LossyRound {
                miss_probability: Self::MISS_PROBABILITY,
            },
            Cp::Packet => CpModel::paper_packet(channel_seed),
        }
    }
}

/// One schedulable measurement: a tier, or one transport of a tier.
/// The run interleaves the samples of every unit over the whole
/// of `--seconds`, so each metric sees the same mix of host conditions
/// instead of one contiguous slice of them.
pub trait Unit {
    /// Takes one timed sample; `traced` asks for the traced variant.
    fn step(&mut self, traced: bool, report: &mut Report, log: &mut SpanLog) -> Result<(), String>;
    /// Whether the unit has its minimum sample count (of both variants
    /// on a traced run).
    fn satisfied(&self, traced_run: bool) -> bool;
    /// Whether the unit has nothing left to run.
    fn exhausted(&self) -> bool {
        false
    }
    /// Checks the unit's outputs and reports its metrics; throughputs
    /// are scaled by the host's speed around each sample.
    fn finish(
        self: Box<Self>,
        traced_run: bool,
        host: &HostSpeed,
        report: &mut Report,
        log: &mut SpanLog,
    ) -> Result<(), String>;
}

/// What a tier's preparation hands the timed loop: each unit with its
/// name and its weight — the share of the loop it needs for a steady
/// median.
pub type Units = Vec<(&'static str, Box<dyn Unit>, f64)>;

/// A unit, its share of the loop and the time it has used.
struct Slot {
    name: String,
    unit: Box<dyn Unit>,
    weight: f64,
    busy: f64,
    steps: u64,
}

/// The timed loop: always steps the unit furthest below its share,
/// until `seconds` have passed and every unit is satisfied. On a traced
/// run each unit alternates untraced and traced samples.
fn schedule(
    slots: &mut [Slot],
    seconds: f64,
    traced_run: bool,
    report: &mut Report,
    log: &mut SpanLog,
) -> Result<(), String> {
    let start = std::time::Instant::now();
    loop {
        let over = start.elapsed().as_secs_f64() >= seconds;
        let next = slots
            .iter_mut()
            .filter(|s| !s.unit.exhausted())
            .filter(|s| !(over && s.unit.satisfied(traced_run)))
            .min_by(|a, b| (a.busy / a.weight).total_cmp(&(b.busy / b.weight)));
        let Some(slot) = next else {
            return Ok(());
        };
        let traced = traced_run && slot.steps % 2 == 1;
        let span = log.open(format!("step:{}", slot.name));
        let (result, seconds) = stats::timed(|| slot.unit.step(traced, report, log));
        log.close(span);
        result?;
        slot.busy += seconds;
        slot.steps += 1;
    }
}

/// One metric as printed.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Unscaled throughputs, printed next to the scaled ones.
    raw: Vec<Metric>,
    /// `(tier, attempted, failed)` operations.
    counts: Vec<(&'static str, u64, u64)>,
    /// `(tier, median set-up seconds)`.
    setups: Vec<(&'static str, f64)>,
    /// Median rate of the host-speed probe, calls per CPU second.
    host_speed: f64,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a throughput as measured, before host-speed scaling.
    pub fn raw(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.raw.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a tier's median set-up time; `setup_s` is their sum.
    pub fn setup(&mut self, tier: Tier, seconds: f64) {
        self.setups.push((tier.name(), seconds));
    }

    /// Records a tier's attempted and failed operations.
    pub fn ops(&mut self, tier: &'static str, attempted: u64, failed: u64) {
        match self.counts.iter_mut().find(|(t, _, _)| *t == tier) {
            Some(entry) => {
                entry.1 += attempted;
                entry.2 += failed;
            }
            None => self.counts.push((tier, attempted, failed)),
        }
    }
}

/// Fails the run with `message` unless `ok`.
pub fn check(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("output check failed: {}", message()))
    }
}

/// Everything a tier needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// The workload: the CP every tier runs on.
    pub cp: Cp,
    /// The `hansim` binary the serve tier launches.
    pub hansim: PathBuf,
    /// Where the run writes its files (inside the checkout).
    pub out: PathBuf,
}

struct Args {
    workload: Cp,
    seed: u64,
    seconds: f64,
    trace: bool,
    hansim: PathBuf,
    out: PathBuf,
    rustc: String,
    rev: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut hansim = None;
    let mut out = None;
    let mut rustc = String::from("unknown");
    let mut rev = String::from("unknown");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Cp::ALL
                        .into_iter()
                        .find(|t| t.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--hansim" => hansim = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--host-rustc" => rustc = value,
            "--host-rev" => rev = value,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        hansim: hansim.ok_or("--hansim is required")?,
        out: out.ok_or("--out is required")?,
        rustc,
        rev,
    })
}

/// Aggregate CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` jiffies.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    Ok(out)
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let jiffies_before = cpu_jiffies();
    stats::clock();
    let ctx = Ctx {
        seed: args.seed,
        cp: args.workload,
        hansim: args.hansim,
        out: args.out,
    };
    let baseline_rss_kb = stats::rss_kb();
    let mut report = Report::default();
    let mut log = SpanLog::new(args.trace);
    let root = log.open(format!("workload:{}", args.workload.name()));
    let mut slots = Vec::new();
    for tier in Tier::ALL {
        let span = log.open(format!("prepare:{}", tier.name()));
        let units = match tier {
            Tier::City => city::prepare(&ctx, baseline_rss_kb, &mut report, &mut log)?,
            Tier::Home => home::prepare(&ctx, &mut report, &mut log)?,
            Tier::Serve => serve::prepare(&ctx, &mut report, &mut log)?,
        };
        log.close(span);
        for (name, unit, weight) in units {
            slots.push(Slot {
                name: name.to_string(),
                unit,
                weight,
                busy: 0.0,
                steps: 0,
            });
        }
    }
    let speed = Rc::new(RefCell::new(HostSpeed::default()));
    slots.push(Slot {
        name: "probe".into(),
        unit: Box::new(probe::Probe::new(speed.clone())),
        weight: PROBE_WEIGHT,
        busy: 0.0,
        steps: 0,
    });
    schedule(&mut slots, args.seconds, args.trace, &mut report, &mut log)?;
    let host = speed.borrow();
    report.host_speed = host.median();
    for slot in slots {
        let span = log.open(format!("finish:{}", slot.name));
        slot.unit.finish(args.trace, &host, &mut report, &mut log)?;
        log.close(span);
    }
    log.close(root);
    let setup_s = report.setups.iter().map(|s| s.1).sum();
    report.e2e("setup_s", setup_s, "s");
    for (tier, seconds) in report.setups.clone() {
        report.layer(format!("setup.{tier}_s"), seconds, "s");
    }

    let steal = match (jiffies_before, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.2}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host nproc={nproc} cpu=\"{}\" rustc=\"{}\" rev={} seed={} confirm_seed={CONFIRM_SEED} \
         workload={} seconds={} trace={} steal_share={steal} baseline_rss_kb={baseline_rss_kb} \
         host_speed={:.1}/cpu_s reference_speed={}/cpu_s",
        cpu_model(),
        args.rustc,
        args.rev,
        args.seed,
        args.workload.name(),
        args.seconds,
        u8::from(args.trace),
        report.host_speed,
        probe::REFERENCE_RATE,
    );
    for (tier, attempted, failed) in &report.counts {
        println!("ops {tier} attempted={attempted} failed={failed}");
    }
    let metrics = if args.trace {
        let path = ctx
            .out
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        std::fs::write(&path, log.to_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans {} written to {}", log.len(), path.display());
        &report.per_layer
    } else {
        for m in &report.raw {
            println!("raw {} {} {}", m.name, m.value, m.unit);
        }
        &report.end_to_end
    };
    for m in metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let attempted: u64 = report.counts.iter().map(|c| c.1).sum();
    let failed: u64 = report.counts.iter().map(|c| c.2).sum();
    check(attempted > 0, || "no operation was attempted".into())?;
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some(city::WORKER_FLAG) {
        city::worker_main(&argv[1..])
    } else {
        run(&argv)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
