//! The `serve` tier: the shipped `hansim serve --manual` daemon on the
//! workload's CP, restarted with `--restore` from a `HANSRV01` snapshot
//! a first daemon wrote before the set-up, driven over one loopback
//! connection by a closed-loop client with no think time. `hansim
//! serve` has no packet-level CP, so on the packet workload the daemon
//! runs the ideal CP.
//!
//! The client cycles through reads (`STATUS`, `SCHEDULE n`), a write
//! (`INJECT arrive:…`) and `ADVANCE`; the auto-checkpoint cadence makes
//! every fifth `ADVANCE` write a snapshot. The script derives from the
//! workload seed; the daemon receives nothing but protocol lines. The
//! same script is then replayed in-process through `OnlineDriver` from
//! the same snapshot, which checks the daemon's replies and times the
//! service work alone.

use crate::probe::HostSpeed;
use crate::sink::SpanLog;
use crate::stats::{derive, median, quantile, timed};
use crate::{check, Cp, Ctx, Report, Tier, Unit, Units};
use han_core::online::protocol::respond;
use han_core::online::OnlineDriver;
use han_core::simulation::{HanSimulation, SimulationConfig, Strategy};
use han_sim::time::SimDuration;
use han_workload::fleet::DeviceClass;
use han_workload::scenario::{Scenario, Workload};
use han_workload::telemetry::TelemetryEvent;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's simulated window, minutes: long enough that the script
/// never reaches its end.
const MINUTES: u64 = 12_600;
/// Devices in the daemon's home (the paper's 26).
const DEVICES: u64 = 26;
/// Rounds per `ADVANCE`: two simulated minutes, so the script's one
/// arrival per cycle adds the paper's 30 requests/h again.
const ADVANCE_ROUNDS: u64 = 60;
/// Auto-checkpoint cadence, simulated minutes: every fifth `ADVANCE`.
const CHECKPOINT_EVERY_MIN: u64 = 10;
/// Script cycles the first daemon runs before writing its snapshot.
const PREFIX_CYCLES: u64 = 5;
/// Latest an injected arrival may land after the round it is sent in.
const MAX_LEAD_S: u64 = 600;
/// Replies per class the timed loop collects, at least.
const MIN_PER_CLASS: usize = 100;
/// Script cycles per timed step (25 requests, ~55 ms).
const CYCLES_PER_STEP: usize = 5;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// How long the client waits to connect, or for any one reply.
const IO_DEADLINE: Duration = Duration::from_secs(10);
/// Pause between attempts to connect to, or reap, a starting or
/// exiting daemon: short against the set-up it is part of.
const POLL: Duration = Duration::from_micros(100);
/// Seed stream of the script.
const STREAM: u64 = 3;

/// Request classes, by how they use the service loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
    Advance,
}

impl Class {
    const ALL: [Class; 3] = [Class::Read, Class::Write, Class::Advance];

    fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Advance => "advance",
        }
    }
}

/// Seconds the daemon's window spans.
fn horizon_s() -> u64 {
    MINUTES * 60
}

/// Script cycle `cycle` (five lines), starting at round `round`.
fn cycle_lines(seed: u64, cycle: u64, round: u64) -> [(Class, String); 5] {
    let draw = |k: u64| derive(seed, STREAM, cycle * 8 + k);
    let at_s = round * 2 + draw(2) % MAX_LEAD_S;
    [
        (Class::Read, "STATUS".into()),
        (Class::Read, format!("SCHEDULE {}", draw(0) % DEVICES)),
        (
            Class::Write,
            format!("INJECT arrive:{}@{at_s}s", draw(1) % DEVICES),
        ),
        (Class::Read, format!("SCHEDULE {}", draw(3) % DEVICES)),
        (Class::Advance, format!("ADVANCE {ADVANCE_ROUNDS}")),
    ]
}

/// The whole script a run may send after the set-up prefix: as many
/// cycles as fit the window with one hour to spare.
fn script(seed: u64) -> Vec<(Class, String)> {
    let last_round = (horizon_s() - 3600) / 2;
    (PREFIX_CYCLES..)
        .map(|c| (c, c * ADVANCE_ROUNDS))
        .take_while(|&(_, round)| round + ADVANCE_ROUNDS < last_round)
        .flat_map(|(c, round)| cycle_lines(seed, c, round))
        .collect()
}

/// The set-up prefix: the first cycles, from round 0.
fn prefix(seed: u64) -> Vec<(Class, String)> {
    (0..PREFIX_CYCLES)
        .flat_map(|c| cycle_lines(seed, c, c * ADVANCE_ROUNDS))
        .collect()
}

/// Self-test: every `INJECT` parses, names a device in the fleet and
/// lands inside the window no earlier than the round it is sent in.
fn check_script(lines: &[(Class, String)], first_round: u64) -> Result<(), String> {
    let mut round = first_round;
    for (_, line) in lines {
        if let Some(spec) = line.strip_prefix("INJECT ") {
            let event =
                TelemetryEvent::parse(spec).map_err(|e| format!("script line '{line}': {e}"))?;
            let TelemetryEvent::Arrival { device, at, .. } = event else {
                return Err(format!("script line '{line}' is not an arrival"));
            };
            let at_s = at.as_secs_f64();
            check(u64::from(device.0) < DEVICES, || {
                format!("'{line}' is out of range")
            })?;
            check(
                at_s >= (round * 2) as f64 && at_s < horizon_s() as f64,
                || format!("'{line}' sent at round {round} is outside the window"),
            )?;
        } else if let Some(n) = line.strip_prefix("ADVANCE ") {
            round += n
                .parse::<u64>()
                .map_err(|_| format!("bad script line '{line}'"))?;
        }
    }
    Ok(())
}

/// The CP the daemon runs: the workload's, where `hansim serve` has it.
fn daemon_cp(cp: Cp) -> Cp {
    match cp {
        Cp::Packet => Cp::Ideal,
        other => other,
    }
}

/// The `--cp` flag of [`daemon_cp`].
fn cp_flag(cp: Cp) -> String {
    match daemon_cp(cp) {
        Cp::Lossy => format!("lossy:{}", Cp::MISS_PROBABILITY),
        _ => "ideal".into(),
    }
}

/// The simulation `hansim serve` builds from its default flags,
/// `--minutes MINUTES` and `--cp`, for the in-process replay.
fn base_simulation(cp: Cp) -> Result<HanSimulation, String> {
    let scenario = Scenario::builder("serve 30/h")
        .class(DeviceClass::paper(DEVICES as usize))
        .workload(Workload::Poisson {
            rate_per_hour: 30.0,
        })
        .duration(SimDuration::from_mins(MINUTES))
        .seed(0)
        .build()
        .map_err(|e| format!("serve scenario: {e}"))?;
    let config = SimulationConfig {
        fleet: scenario.fleet.clone(),
        cp: daemon_cp(cp).model(scenario.seed),
        duration: scenario.duration,
        ..SimulationConfig::paper(Strategy::coordinated(), scenario.seed)
    };
    HanSimulation::new(config, scenario.requests()).map_err(|e| format!("serve simulation: {e}"))
}

/// A running daemon; killed and reaped on drop unless shut down first.
struct Daemon {
    child: Child,
    conn: BufReader<TcpStream>,
}

impl Daemon {
    /// Starts `hansim serve --manual` on a free loopback port with
    /// `extra` flags and connects to it; returns once it answers.
    fn start(hansim: &Path, extra: &[String]) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let mut child = Command::new(hansim)
            .args(["serve", "--listen", &addr, "--manual", "--minutes"])
            .arg(MINUTES.to_string())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hansim.display()))?;
        let conn = match Self::connect(&addr) {
            Ok(conn) => conn,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut daemon = Daemon {
            child,
            conn: BufReader::new(conn),
        };
        // Answering, not merely listening.
        let reply = daemon.request("STATUS")?;
        check(reply.starts_with("OK "), || {
            format!("daemon answered STATUS with '{reply}'")
        })?;
        Ok(daemon)
    }

    fn connect(addr: &str) -> Result<TcpStream, String> {
        let start = Instant::now();
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_nodelay(true)
                        .and_then(|()| stream.set_read_timeout(Some(IO_DEADLINE)))
                        .map_err(|e| format!("socket options: {e}"))?;
                    return Ok(stream);
                }
                Err(e) if start.elapsed() > IO_DEADLINE => {
                    return Err(format!("daemon never listened on {addr}: {e}"))
                }
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }

    /// Sends one line and returns the reply without its newline.
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.conn
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send '{line}': {e}"))?;
        let mut reply = String::new();
        match self.conn.read_line(&mut reply) {
            Ok(0) => Err(format!("no reply to '{line}': connection closed")),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("no reply to '{line}': {e}")),
        }
    }

    /// `SHUTDOWN`, then waits for the process to exit cleanly.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request("SHUTDOWN")?;
        check(reply == "OK bye", || format!("SHUTDOWN answered '{reply}'"))?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return check(status.success(), || format!("daemon exited with {status}"))
                }
                Ok(None) if start.elapsed() < IO_DEADLINE => std::thread::sleep(POLL),
                _ => return Err("daemon did not exit after SHUTDOWN".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already exited after a clean SHUTDOWN: both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes the snapshot the set-ups restore from: a first daemon runs
/// the prefix, checkpoints to `snapshot` and shuts down. Returns the
/// snapshot's bytes.
fn write_snapshot(ctx: &Ctx, snapshot: &Path) -> Result<Vec<u8>, String> {
    let mut first = Daemon::start(&ctx.hansim, &["--cp".into(), cp_flag(ctx.cp)])?;
    for (_, line) in prefix(ctx.seed) {
        let reply = first.request(&line)?;
        check(reply.starts_with("OK"), || {
            format!("prefix '{line}' answered '{reply}'")
        })?;
    }
    let reply = first.request(&format!("CHECKPOINT {}", snapshot.display()))?;
    check(reply.starts_with("OK checkpoint="), || {
        format!("CHECKPOINT answered '{reply}'")
    })?;
    first.shutdown()?;
    std::fs::read(snapshot).map_err(|e| format!("read {}: {e}", snapshot.display()))
}

/// One set-up: a daemon restored from `snapshot`, from its spawn to its
/// first `OK`. It auto-checkpoints to `checkpoint`.
fn setup(ctx: &Ctx, snapshot: &Path, checkpoint: &Path) -> Result<Daemon, String> {
    Daemon::start(
        &ctx.hansim,
        &[
            "--cp".into(),
            cp_flag(ctx.cp),
            "--checkpoint".into(),
            checkpoint.display().to_string(),
            "--checkpoint-every".into(),
            CHECKPOINT_EVERY_MIN.to_string(),
            "--restore".into(),
            snapshot.display().to_string(),
        ],
    )
}

fn status_digest(status: &str) -> Option<&str> {
    status
        .split_whitespace()
        .find_map(|field| field.strip_prefix("digest="))
}

/// Prepares the `serve` tier: the snapshot, then [`SETUPS`] set-ups,
/// keeping the last restored daemon for the timed loop.
pub fn prepare(ctx: &Ctx, report: &mut Report, log: &mut SpanLog) -> Result<Units, String> {
    let script = script(ctx.seed);
    check_script(&prefix(ctx.seed), 0)?;
    check_script(&script, PREFIX_CYCLES * ADVANCE_ROUNDS)?;
    let pid = std::process::id();
    let snapshot: PathBuf = ctx.out.join(format!("serve-{pid}.snap"));
    let checkpoint: PathBuf = ctx.out.join(format!("serve-{pid}-auto.snap"));
    let bytes = log.call("write_snapshot", || write_snapshot(ctx, &snapshot))?;
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // Each earlier daemon is shut down before the next set-up, so
        // only one restored daemon is alive at a time.
        if let Some(daemon) = ready.take() {
            Daemon::shutdown(daemon)?;
        }
        let (built, s) = log.call("setup", || timed(|| setup(ctx, &snapshot, &checkpoint)));
        setups.push(s);
        ready = Some(built?);
    }
    report.setup(Tier::Serve, median(&setups));
    let daemon = ready.expect("at least one set-up");
    let unit = Client {
        daemon,
        cp: ctx.cp,
        bytes,
        snapshots: [snapshot, checkpoint],
        out: ctx.out.clone(),
        script,
        latency: Default::default(),
        replies: Vec::new(),
    };
    // Replies wait ~2 ms in the daemon's idle sleep, so their medians
    // are steady on a small share of the loop.
    Ok(vec![("serve", Box::new(unit), 0.5)])
}

/// The closed-loop client: one connection, no think time. Each step
/// sends the next [`CYCLES_PER_STEP`] cycles of the script.
struct Client {
    daemon: Daemon,
    cp: Cp,
    /// The snapshot the daemon restored from.
    bytes: Vec<u8>,
    /// The restored and the auto-checkpoint snapshot files.
    snapshots: [PathBuf; 2],
    out: PathBuf,
    script: Vec<(Class, String)>,
    /// Reply times per class, ms.
    latency: [Vec<f64>; 3],
    replies: Vec<String>,
}

impl Unit for Client {
    fn step(&mut self, _: bool, report: &mut Report, _: &mut SpanLog) -> Result<(), String> {
        let from = self.replies.len();
        let to = (from + CYCLES_PER_STEP * 5).min(self.script.len());
        for (class, line) in &self.script[from..to] {
            let (reply, s) = timed(|| self.daemon.request(line));
            let reply = reply?;
            self.latency[*class as usize].push(s * 1e3);
            let ok = reply.starts_with("OK");
            report.ops(Tier::Serve.name(), 1, u64::from(!ok));
            check(ok, || format!("'{line}' answered '{reply}'"))?;
            self.replies.push(reply);
        }
        Ok(())
    }

    fn satisfied(&self, _: bool) -> bool {
        self.latency.iter().all(|l| l.len() >= MIN_PER_CLASS)
    }

    fn exhausted(&self) -> bool {
        self.replies.len() >= self.script.len()
    }

    fn finish(
        mut self: Box<Self>,
        _: bool,
        _: &HostSpeed,
        report: &mut Report,
        log: &mut SpanLog,
    ) -> Result<(), String> {
        check(self.satisfied(false), || {
            format!("the script ran out before {MIN_PER_CLASS} replies per class")
        })?;
        let final_status = self.daemon.request("STATUS")?;
        let Client {
            daemon,
            cp,
            bytes,
            snapshots,
            out,
            script,
            latency,
            replies,
        } = *self;
        daemon.shutdown()?;
        for class in Class::ALL {
            let l = &latency[class as usize];
            report.e2e(format!("{}_p50_ms", class.name()), median(l), "ms");
        }

        // The same script, in-process, from the same snapshot.
        let restore_ms: Vec<f64> = (0..SETUPS)
            .map(|_| {
                let sim = base_simulation(cp)?;
                let (driver, s) = timed(|| OnlineDriver::restore(sim, &bytes));
                driver.map_err(|e| format!("in-process restore: {e}"))?;
                Ok(s * 1e3)
            })
            .collect::<Result<_, String>>()?;
        let mut driver = OnlineDriver::restore(base_simulation(cp)?, &bytes)
            .map_err(|e| format!("in-process restore: {e}"))?;
        let mut service: [Vec<f64>; 3] = Default::default();
        let span = log.open("respond");
        for ((class, line), daemon_reply) in script.iter().zip(&replies) {
            let (response, s) = timed(|| respond(&mut driver, line));
            service[*class as usize].push(s * 1e6);
            // The daemon's STATUS appends registry fields the unobserved
            // in-process driver lacks; every other reply is byte-equal.
            let equal = if line == "STATUS" {
                daemon_reply == &response.line
                    || daemon_reply.starts_with(&format!("{} ", response.line))
            } else {
                daemon_reply == &response.line
            };
            check(equal, || {
                format!(
                    "'{line}': daemon replied '{daemon_reply}', in-process '{}'",
                    response.line
                )
            })?;
        }
        log.close(span);
        let replay_status = respond(&mut driver, "STATUS").line;
        check(
            status_digest(&final_status).is_some()
                && status_digest(&final_status) == status_digest(&replay_status),
            || format!("final STATUS '{final_status}' disagrees with the replay '{replay_status}'"),
        )?;

        let final_snapshot = driver.snapshot();
        let save_path = out.join(format!("serve-{}-final.snap", std::process::id()));
        let save_ms: Vec<f64> = (0..SETUPS)
            .map(|_| {
                let (saved, s) = timed(|| driver.save(&save_path));
                saved
                    .map(|()| s * 1e3)
                    .map_err(|e| format!("in-process save: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let _ = std::fs::remove_file(&save_path);
        for path in &snapshots {
            let _ = std::fs::remove_file(path);
        }

        for class in Class::ALL {
            let l = &latency[class as usize];
            let service_us = median(&service[class as usize]);
            report.layer(
                format!("online.service_us.{}", class.name()),
                service_us,
                "us",
            );
            report.layer(
                format!("serve.wait_ms.{}", class.name()),
                quantile(l, 0.5) - service_us / 1e3,
                "ms",
            );
            report.layer(
                format!("serve.p90_ms.{}", class.name()),
                quantile(l, 0.9),
                "ms",
            );
            report.layer(
                format!("serve.p99_ms.{}", class.name()),
                quantile(l, 0.99),
                "ms",
            );
            report.layer(
                format!("serve.samples.{}", class.name()),
                l.len() as f64,
                "count",
            );
        }
        report.layer(
            "checkpoint.snapshot_bytes",
            final_snapshot.len() as f64,
            "bytes",
        );
        report.layer("checkpoint.save_ms", median(&save_ms), "ms");
        report.layer("checkpoint.restore_ms", median(&restore_ms), "ms");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_is_seeded_in_range_and_in_window() {
        let a = script(1);
        assert_eq!(a, script(1));
        assert_ne!(a, script(2));
        check_script(&prefix(1), 0).expect("prefix is valid");
        check_script(&a, PREFIX_CYCLES * ADVANCE_ROUNDS).expect("script is valid");
        let classes = |c: Class| a.iter().filter(|(k, _)| *k == c).count();
        assert_eq!(classes(Class::Read), 3 * classes(Class::Advance));
        assert_eq!(classes(Class::Write), classes(Class::Advance));
    }

    #[test]
    fn the_self_test_rejects_stale_and_out_of_range_arrivals() {
        let stale = [(Class::Write, "INJECT arrive:3@10s".to_string())];
        assert!(check_script(&stale, 100).is_err());
        let foreign = [(Class::Write, "INJECT arrive:26@400s".to_string())];
        assert!(check_script(&foreign, 100).is_err());
        let late = [(Class::Write, format!("INJECT arrive:3@{}s", horizon_s()))];
        assert!(check_script(&late, 100).is_err());
    }
}
