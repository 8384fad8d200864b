//! The `city` tier: a uniform city of paper homes on the workload's CP,
//! run in-process on the shared-heap shards (`City::run`) and as a fleet
//! of `nproc` worker processes (`city::mp::run_city_mp`). The benchmark
//! re-execs itself as the workers, which serve their feeders through
//! `mp::serve_worker`. In-process and fleet are one aggregation over two
//! transports, so their reports must be equal. Both are measured in
//! devices per second of the CPU time they use — every thread of the
//! benchmark and every worker process — so the fleet's figure carries
//! its processes' start-up and wire costs.

use crate::probe::HostSpeed;
use crate::sink::{PhaseSink, SpanLog};
use crate::stats::{clock, cpu_timed, derive, median, peak_rss_kb, process_cpu_s, timed};
use crate::{check, Cp, Ctx, Report, Tier, Unit, Units};
use han_core::city::mp::{self, MpOptions, MpStats, WorkerConnection, WorkerTask};
use han_core::city::{City, CityReport, CitySpec};
use han_obs::{Counter, Gauge, Obs};
use han_sim::time::SimDuration;
use han_workload::scenario::{ArrivalRate, Scenario};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// The hidden first argument that turns this binary into a city worker.
pub const WORKER_FLAG: &str = "--city-mp-worker";

/// Two feeders: one shard per feeder, and a fleet of two workers runs
/// one feeder each.
const FEEDERS: usize = 2;
/// Timed runs per transport, at least.
const MIN_RUNS: usize = 3;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// Seed stream of the city.
const STREAM: u64 = 2;

/// Homes per feeder and simulated minutes, so one city run takes about
/// half a second on two cores under every CP: eight paper days per
/// feeder on the ideal CP (shard memory shows in `VmHWM`), eight hours
/// on `lossy:0.3`, and two homes for five minutes on the packet CP.
fn shape(cp: Cp) -> (usize, u64) {
    match cp {
        Cp::Ideal => (8, 350),
        Cp::Lossy => (8, 60),
        Cp::Packet => (2, 5),
    }
}

/// The city a run measures — one function, so a re-exec'd worker
/// derives the same spec as its parent (the handshake fingerprint
/// pins this).
fn spec(seed: u64, cp: Cp) -> CitySpec {
    let (homes, minutes) = shape(cp);
    let template = Scenario {
        duration: SimDuration::from_mins(minutes),
        ..Scenario::paper(ArrivalRate::High, 0)
    };
    CitySpec::uniform(
        "bench city",
        &template,
        cp.model(derive(seed, STREAM, 1)),
        FEEDERS,
        homes,
    )
    .with_seed(derive(seed, STREAM, 0))
}

/// Worker half: `--city-mp-worker INDEX COUNT SEED CP` streams the
/// worker's feeder partition to stdout.
pub fn worker_main(argv: &[String]) -> Result<(), String> {
    let [worker, workers, seed, cp] = argv else {
        return Err(format!("{WORKER_FLAG} takes INDEX COUNT SEED CP"));
    };
    let parse = |v: &String| {
        v.parse::<u64>()
            .map_err(|_| format!("bad worker argument '{v}'"))
    };
    let cp = Cp::ALL
        .into_iter()
        .find(|c| c.name() == cp)
        .ok_or_else(|| format!("bad worker CP '{cp}'"))?;
    let spec = spec(parse(seed)?, cp);
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    mp::serve_worker(
        &spec,
        parse(worker)? as usize,
        parse(workers)? as usize,
        &mut out,
    )
    .map_err(|e| format!("city worker failed: {e:?}"))
}

/// Launches workers by re-executing this binary; adds the time spent in
/// `spawn` to `spawn_s`.
fn launcher(
    seed: u64,
    cp: Cp,
    spawn_s: &mut f64,
) -> impl FnMut(&WorkerTask) -> Result<WorkerConnection, String> + '_ {
    move |task| {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args([
                WORKER_FLAG.to_string(),
                task.worker.to_string(),
                task.workers.to_string(),
                seed.to_string(),
                cp.name().to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        *spawn_s += start.elapsed().as_secs_f64();
        let stdout = child.stdout.take().ok_or("worker stdout was not piped")?;
        // The supervisor calls this exactly once per worker, on success
        // and on teardown alike: the child is always reaped.
        Ok(WorkerConnection::new(stdout).with_shutdown(move || {
            let _ = child.kill();
            let _ = child.wait();
        }))
    }
}

/// What one supervised fleet run returned and took.
struct FleetRun {
    report: CityReport,
    stats: MpStats,
    wall_s: f64,
    /// CPU time of the parent and its reaped workers.
    cpu_s: f64,
    spawn_s: f64,
}

/// One supervised fleet run. The supervisor reaps every worker before
/// it returns, so their CPU time is counted.
fn fleet(
    spec: &CitySpec,
    seed: u64,
    cp: Cp,
    workers: usize,
    obs: &Obs,
) -> Result<FleetRun, String> {
    let mut spawn_s = 0.0;
    let ((result, wall_s), cpu_s) = cpu_timed(process_cpu_s, || {
        timed(|| {
            mp::run_city_mp(
                spec,
                &MpOptions::new(workers),
                obs,
                &mut launcher(seed, cp, &mut spawn_s),
            )
        })
    })?;
    let (report, stats) = result.map_err(|e| format!("city fleet failed: {e:?}"))?;
    Ok(FleetRun {
        report,
        stats,
        wall_s,
        cpu_s,
        spawn_s,
    })
}

/// Prepares the `city` tier: set-up, then the first in-process run,
/// which pins the report every later run must equal and, coming before
/// any other tier's work, sets the process's `VmHWM`. `baseline_rss_kb`
/// is the process's resident set before any tier ran.
pub fn prepare(
    ctx: &Ctx,
    baseline_rss_kb: u64,
    report: &mut Report,
    log: &mut SpanLog,
) -> Result<Units, String> {
    let tier = Tier::City;
    let mut setups = Vec::new();
    let mut city = None;
    for _ in 0..SETUPS {
        let (built, s) = timed(|| City::new(spec(ctx.seed, ctx.cp)));
        setups.push(s);
        city = Some(built.map_err(|e| format!("city spec rejected: {e}"))?);
    }
    report.setup(tier, median(&setups));
    let city = city.expect("at least one set-up");
    let spec = city.spec();
    let requests: u64 = (0..spec.feeders)
        .flat_map(|f| (0..spec.homes_per_feeder).map(move |h| (f, h)))
        .map(|(f, h)| spec.home_scenario(f, h).requests().len() as u64)
        .sum();
    let first = log
        .call("City::run", || city.run())
        .map_err(|e| format!("city run: {e}"))?;
    let rss_kb = peak_rss_kb();
    report.ops(tier.name(), requests, first.deadline_misses);
    check(first.deadline_misses == 0, || {
        format!("{} deadline misses in the city", first.deadline_misses)
    })?;
    report.e2e("city_peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
    report.layer(
        "city.rss_kb_per_device",
        rss_kb.saturating_sub(baseline_rss_kb) as f64 / spec.device_count() as f64,
        "kB",
    );
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(spec.feeders);
    let shared = Shared {
        seed: ctx.seed,
        cp: ctx.cp,
        devices: spec.device_count() as f64,
        requests,
        workers,
        first,
    };
    let fleet_sink = Arc::new(PhaseSink::default());
    let fleet = Fleet {
        city: city.clone(),
        shared: shared.clone(),
        obs: Obs::new(fleet_sink.clone()),
        sink: fleet_sink,
        untraced: Vec::new(),
        traced: Vec::new(),
        spawn_ms: Vec::new(),
        wall_max: Vec::new(),
        wall_min: Vec::new(),
        tail_ms: Vec::new(),
        last: MpStats::default(),
    };
    let sink = Arc::new(PhaseSink::default());
    let mut observed = city.clone();
    observed.set_observer(Obs::new(sink.clone()));
    let in_process = InProcess {
        city,
        observed,
        sink,
        shared,
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    Ok(vec![
        ("city", Box::new(in_process), 1.2),
        ("fleet", Box::new(fleet), 1.2),
    ])
}

/// What both transports share: the city's identity and the report
/// every run must reproduce.
#[derive(Clone)]
struct Shared {
    seed: u64,
    cp: Cp,
    devices: f64,
    requests: u64,
    workers: usize,
    first: CityReport,
}

impl Shared {
    fn check(&self, got: &CityReport, what: &str, report: &mut Report) -> Result<(), String> {
        report.ops(Tier::City.name(), self.requests, 0);
        check(&self.first == got, || {
            format!("the {what} city report differs from the first in-process report")
        })
    }
}

/// `City::run` on the shared-heap shards; the traced variant carries
/// the city's own observer. Untraced samples are `(time, devices per
/// CPU second)`, traced ones wall seconds per run.
struct InProcess {
    city: City,
    observed: City,
    sink: Arc<PhaseSink>,
    shared: Shared,
    untraced: Vec<(f64, f64)>,
    traced: Vec<f64>,
}

impl Unit for InProcess {
    fn step(&mut self, traced: bool, report: &mut Report, log: &mut SpanLog) -> Result<(), String> {
        let city = if traced { &self.observed } else { &self.city };
        let start = clock();
        let ((got, wall_s), cpu_s) = log.call("City::run", || {
            cpu_timed(process_cpu_s, || timed(|| city.run()))
        })?;
        let got = got.map_err(|e| format!("city run: {e}"))?;
        self.shared.check(&got, "in-process", report)?;
        if traced {
            self.traced.push(wall_s);
        } else {
            self.untraced
                .push((start + wall_s / 2.0, self.shared.devices / cpu_s));
        }
        Ok(())
    }

    fn satisfied(&self, traced_run: bool) -> bool {
        self.untraced.len() >= MIN_RUNS && (!traced_run || self.traced.len() >= MIN_RUNS)
    }

    fn finish(
        self: Box<Self>,
        traced_run: bool,
        host: &HostSpeed,
        report: &mut Report,
        _: &mut SpanLog,
    ) -> Result<(), String> {
        let raw = median(&self.untraced.iter().map(|s| s.1).collect::<Vec<_>>());
        report.raw("city_devices_per_cpu_s", raw, "1/s");
        report.e2e(
            "city_devices_per_cpu_s",
            host.scaled_median(&self.untraced),
            "1/s",
        );
        if traced_run {
            let r = self.sink.registry();
            report.layer("city.run_s", median(&self.traced), "s");
            report.layer(
                "city.shard_homes_max",
                r.gauge(Gauge::CityShardHomes) as f64,
                "count",
            );
            report.layer(
                "city.shard_imbalance_permille",
                r.gauge(Gauge::CityShardImbalancePermille) as f64,
                "permille",
            );
        }
        Ok(())
    }
}

/// `run_city_mp` over `nproc` re-exec'd worker processes; the traced
/// variant passes an observer and keeps the transport statistics.
/// Untraced samples are `(time, devices per CPU second)`, traced ones
/// wall seconds.
struct Fleet {
    city: City,
    shared: Shared,
    obs: Obs,
    sink: Arc<PhaseSink>,
    untraced: Vec<(f64, f64)>,
    traced: Vec<f64>,
    spawn_ms: Vec<f64>,
    wall_max: Vec<f64>,
    wall_min: Vec<f64>,
    tail_ms: Vec<f64>,
    last: MpStats,
}

impl Unit for Fleet {
    fn step(&mut self, traced: bool, report: &mut Report, log: &mut SpanLog) -> Result<(), String> {
        let obs = if traced { self.obs.clone() } else { Obs::off() };
        let spec = self.city.spec();
        let s = &self.shared;
        let start = clock();
        let FleetRun {
            report: got,
            stats,
            wall_s: wall,
            cpu_s,
            spawn_s,
        } = log.call("run_city_mp", || fleet(spec, s.seed, s.cp, s.workers, &obs))?;
        self.shared.check(&got, "worker-fleet", report)?;
        if !traced {
            self.untraced
                .push((start + wall / 2.0, self.shared.devices / cpu_s));
            return Ok(());
        }
        let slowest = stats.worker_wall.iter().max().copied().unwrap_or_default();
        let fastest = stats.worker_wall.iter().min().copied().unwrap_or_default();
        self.traced.push(wall);
        self.spawn_ms.push(spawn_s * 1e3);
        self.wall_max.push(slowest.as_secs_f64());
        self.wall_min.push(fastest.as_secs_f64());
        self.tail_ms.push((wall - slowest.as_secs_f64()) * 1e3);
        self.last = stats;
        Ok(())
    }

    fn satisfied(&self, traced_run: bool) -> bool {
        self.untraced.len() >= MIN_RUNS && (!traced_run || self.traced.len() >= MIN_RUNS)
    }

    fn finish(
        self: Box<Self>,
        traced_run: bool,
        host: &HostSpeed,
        report: &mut Report,
        log: &mut SpanLog,
    ) -> Result<(), String> {
        let raw = median(&self.untraced.iter().map(|s| s.1).collect::<Vec<_>>());
        report.raw("fleet_devices_per_cpu_s", raw, "1/s");
        report.e2e(
            "fleet_devices_per_cpu_s",
            host.scaled_median(&self.untraced),
            "1/s",
        );
        if !traced_run {
            return Ok(());
        }
        let r = self.sink.registry();
        report.layer("city.mp.spawn_ms", median(&self.spawn_ms), "ms");
        report.layer("city.mp.worker_wall_s_max", median(&self.wall_max), "s");
        report.layer("city.mp.worker_wall_s_min", median(&self.wall_min), "s");
        report.layer(
            "city.mp.wall_imbalance_permille",
            r.gauge(Gauge::CityMpWallImbalancePermille) as f64,
            "permille",
        );
        report.layer("city.mp.frames", self.last.frames as f64, "count");
        report.layer(
            "city.mp.payload_bytes",
            self.last.payload_bytes as f64,
            "bytes",
        );
        check(r.counter(Counter::CityMpFrames) >= self.last.frames, || {
            "the fleet's frame counter is below its last run's frames".into()
        })?;
        report.layer("city.mp.parent_tail_ms", median(&self.tail_ms), "ms");

        // Worker 0's whole stream, produced in-process into memory, then
        // decoded: the two ends of the wire without the processes.
        let spec = self.city.spec();
        let mut stream = Vec::new();
        let (served, serve_s) = log.call("mp::serve_worker", || {
            timed(|| mp::serve_worker(spec, 0, self.shared.workers, &mut stream))
        });
        served.map_err(|e| format!("in-process worker failed: {e:?}"))?;
        let (decoded, decode_s) =
            log.call("mp::decode_stream", || timed(|| mp::decode_stream(&stream)));
        let (_, records) = decoded.map_err(|e| format!("worker stream does not decode: {e:?}"))?;
        check(
            !records.is_empty()
                && records
                    .iter()
                    .zip(&self.shared.first.feeders)
                    .all(|(a, b)| a == b),
            || "the in-process worker stream differs from the city's feeders".into(),
        )?;
        report.layer("city.mp.serve_worker_s", serve_s, "s");
        report.layer("city.mp.decode_ms", decode_s * 1e3, "ms");
        Ok(())
    }
}
