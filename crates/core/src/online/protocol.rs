//! The newline-delimited text protocol the service speaks.
//!
//! One request per line, one reply per line — trivially scriptable with
//! `nc`. Replies start with `OK` (followed by `key=value` pairs) or
//! `ERR` (followed by the typed error's display). The grammar:
//!
//! ```text
//! STATUS                     service status (round, digest, load, …)
//! SCHEDULE <node>            one node's actuation state
//! FEEDER                     cap / tariff / energy view
//! INJECT <spec>              ingest telemetry (han_workload::telemetry
//!                            grammar; ';'-separated entries)
//! ADVANCE <rounds|end>       run N more rounds now (manual pacing)
//! CHECKPOINT <path>          write a service snapshot atomically
//! METRICS                    Prometheus text exposition of the
//!                            metrics registry (multi-line reply)
//! DUMP                       flight-recorder ring as JSONL, oldest
//!                            first (multi-line reply)
//! SHUTDOWN                   close the service loop
//! ```
//!
//! Commands are case-insensitive; digests print as 16 hex digits; every
//! float prints with three decimals so replies are byte-stable across
//! runs — the daemon smoke test byte-compares them. `METRICS` and
//! `DUMP` answer with a counted header (`OK metrics lines=N` /
//! `OK flight events=N`) followed by that many payload lines, so a
//! line-oriented client knows exactly how much to read.

use super::driver::OnlineDriver;
use super::ingest::OnlineError;
use std::fmt::Write as _;

/// One parsed protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `STATUS` — service status.
    Status,
    /// `SCHEDULE <node>` — one node's actuation state.
    Schedule(usize),
    /// `FEEDER` — the feeder-side view.
    Feeder,
    /// `INJECT <spec>` — ingest a telemetry script (raw, parsed at
    /// execution so the error names the offending entry).
    Inject(String),
    /// `ADVANCE <rounds>` — run more rounds now (`u64::MAX` = to end).
    Advance(u64),
    /// `CHECKPOINT <path>` — write a service snapshot.
    Checkpoint(String),
    /// `METRICS` — Prometheus text exposition of the metrics registry.
    Metrics,
    /// `DUMP` — the flight-recorder ring as JSONL.
    Dump,
    /// `SHUTDOWN` — close the service loop.
    Shutdown,
}

impl Command {
    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// [`OnlineError::BadCommand`] naming what was wrong.
    pub fn parse(line: &str) -> Result<Command, OnlineError> {
        let line = line.trim();
        let bad = |reason: String| OnlineError::BadCommand { reason };
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let no_arg = |cmd: Command| {
            if rest.is_empty() {
                Ok(cmd)
            } else {
                Err(bad(format!("{} takes no argument", verb.to_uppercase())))
            }
        };
        match verb.to_ascii_uppercase().as_str() {
            "" => Err(bad("empty line".into())),
            "STATUS" => no_arg(Command::Status),
            "FEEDER" => no_arg(Command::Feeder),
            "METRICS" => no_arg(Command::Metrics),
            "DUMP" => no_arg(Command::Dump),
            "SHUTDOWN" => no_arg(Command::Shutdown),
            "SCHEDULE" => rest
                .parse()
                .map(Command::Schedule)
                .map_err(|_| bad(format!("SCHEDULE needs a node index, got '{rest}'"))),
            "INJECT" => {
                if rest.is_empty() {
                    Err(bad("INJECT needs a telemetry spec".into()))
                } else {
                    Ok(Command::Inject(rest.to_string()))
                }
            }
            "ADVANCE" => {
                if rest.eq_ignore_ascii_case("end") {
                    Ok(Command::Advance(u64::MAX))
                } else {
                    rest.parse().map(Command::Advance).map_err(|_| {
                        bad(format!(
                            "ADVANCE needs a round count or 'end', got '{rest}'"
                        ))
                    })
                }
            }
            "CHECKPOINT" => {
                if rest.is_empty() {
                    Err(bad("CHECKPOINT needs a path".into()))
                } else {
                    Ok(Command::Checkpoint(rest.to_string()))
                }
            }
            other => Err(bad(format!("unknown command '{other}'"))),
        }
    }
}

/// One reply line plus the loop-control signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The reply, without the trailing newline.
    pub line: String,
    /// Whether the service loop should close after replying.
    pub shutdown: bool,
}

impl Response {
    fn ok(line: String) -> Response {
        Response {
            line,
            shutdown: false,
        }
    }
}

/// The `ADVANCE` reply for the driver's current position. Shared with
/// the server loop, whose `ADVANCE` path routes through the
/// auto-checkpoint cadence instead of a bare `advance_to`.
pub(crate) fn advance_reply(driver: &OnlineDriver) -> Response {
    Response::ok(format!(
        "OK round={}/{} finished={}",
        driver.next_round(),
        driver.total_rounds(),
        driver.finished(),
    ))
}

/// Parses and executes one protocol line against the driver, producing
/// the reply. Errors become `ERR` lines — the connection survives them.
pub fn respond(driver: &mut OnlineDriver, line: &str) -> Response {
    match Command::parse(line).and_then(|cmd| execute(driver, cmd)) {
        Ok(response) => response,
        Err(e) => Response::ok(format!("ERR {e}")),
    }
}

/// Executes one parsed command.
///
/// # Errors
///
/// Any [`OnlineError`] the operation reports; [`respond`] renders these
/// as `ERR` lines.
pub fn execute(driver: &mut OnlineDriver, cmd: Command) -> Result<Response, OnlineError> {
    Ok(match cmd {
        Command::Status => {
            let s = driver.status();
            let mut line = format!(
                "OK round={}/{} time={} load_kw={:.3} digest={:016x} delivered={} \
                 pending={} injections={} divergent={} energy_kwh={:.3} finished={}",
                s.next_round,
                s.total_rounds,
                s.time,
                s.load_kw,
                s.digest,
                s.delivered,
                s.pending_requests,
                s.pending_injections,
                s.divergent_rounds,
                s.energy_kwh,
                s.finished,
            );
            // Registry-derived fields are *appended*: every field above
            // keeps its byte-exact position whether or not a sink is
            // attached.
            line.push_str(&driver.status_obs_suffix());
            Response::ok(line)
        }
        Command::Schedule(node) => {
            let s = driver.schedule_of(node)?;
            let mut line = format!(
                "OK node={} on={} active={} power_w={:.0} windows_served={} misses={}",
                s.node, s.on, s.active, s.power_w, s.windows_served, s.deadline_misses,
            );
            match s.planned_start {
                Some(at) => {
                    let _ = write!(line, " planned_start={at}");
                }
                None => line.push_str(" planned_start=none"),
            }
            Response::ok(line)
        }
        Command::Feeder => {
            let s = driver.feeder();
            let mut line = String::from("OK");
            match s.cap_kw {
                Some(kw) => {
                    let _ = write!(line, " cap_kw={kw:.3}");
                }
                None => line.push_str(" cap_kw=none"),
            }
            let _ = write!(line, " load_kw={:.3}", s.load_kw);
            match s.rate_per_kwh {
                Some(rate) => {
                    let _ = write!(line, " rate_per_kwh={rate:.3}");
                }
                None => line.push_str(" rate_per_kwh=none"),
            }
            let _ = write!(line, " energy_kwh={:.3}", s.energy_kwh);
            Response::ok(line)
        }
        Command::Inject(spec) => {
            let applied = driver.ingest_script(&spec)?;
            Response::ok(format!(
                "OK ingested={applied} round={}",
                driver.next_round()
            ))
        }
        Command::Advance(rounds) => {
            let target = driver.next_round().saturating_add(rounds);
            driver.advance_to(target);
            advance_reply(driver)
        }
        Command::Checkpoint(path) => {
            let path = std::path::PathBuf::from(path);
            driver.save(&path)?;
            Response::ok(format!(
                "OK checkpoint={} round={}",
                path.display(),
                driver.next_round()
            ))
        }
        Command::Metrics => {
            let text = driver
                .metrics_text()
                .ok_or_else(|| OnlineError::BadCommand {
                    reason: "observability is not attached to this service".into(),
                })?;
            let body = text.trim_end_matches('\n');
            Response::ok(format!("OK metrics lines={}\n{body}", body.lines().count()))
        }
        Command::Dump => {
            let (events, jsonl) = driver
                .flight_jsonl()
                .ok_or_else(|| OnlineError::BadCommand {
                    reason: "observability is not attached to this service".into(),
                })?;
            let mut line = format!("OK flight events={events}");
            let body = jsonl.trim_end_matches('\n');
            if !body.is_empty() {
                line.push('\n');
                line.push_str(body);
            }
            Response::ok(line)
        }
        Command::Shutdown => Response {
            line: "OK bye".into(),
            shutdown: true,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_case_insensitively() {
        assert_eq!(Command::parse("status").unwrap(), Command::Status);
        assert_eq!(
            Command::parse(" SCHEDULE 3 ").unwrap(),
            Command::Schedule(3)
        );
        assert_eq!(
            Command::parse("inject arrive:2@10; done:2@40").unwrap(),
            Command::Inject("arrive:2@10; done:2@40".into())
        );
        assert_eq!(Command::parse("ADVANCE 40").unwrap(), Command::Advance(40));
        assert_eq!(
            Command::parse("advance end").unwrap(),
            Command::Advance(u64::MAX)
        );
        assert_eq!(
            Command::parse("checkpoint /tmp/ck.bin").unwrap(),
            Command::Checkpoint("/tmp/ck.bin".into())
        );
        assert_eq!(Command::parse("SHUTDOWN").unwrap(), Command::Shutdown);
        assert_eq!(Command::parse("metrics").unwrap(), Command::Metrics);
        assert_eq!(Command::parse("Dump").unwrap(), Command::Dump);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for line in [
            "",
            "NOPE",
            "SCHEDULE",
            "SCHEDULE x",
            "INJECT",
            "ADVANCE soon",
            "CHECKPOINT",
            "STATUS now",
            "METRICS please",
            "DUMP here",
        ] {
            assert!(
                matches!(Command::parse(line), Err(OnlineError::BadCommand { .. })),
                "line {line:?} should be rejected"
            );
        }
    }
}
