//! The service loop: [`OnlineDriver`] on one driver thread, every
//! client on a thread of its own.
//!
//! [`serve`] advances simulated time against the chosen [`Pace`],
//! auto-checkpoints on a simulated-time cadence, and speaks the
//! [protocol](super::protocol) over one `std::net::TcpListener`, with
//! `std` threads and one channel and no external dependencies. An
//! acceptor thread blocks in `accept` and gives each connection a
//! thread, up to [`MAX_CLIENTS`] at once. That thread reads one line of
//! at most [`MAX_LINE_BYTES`], hands it to the driver thread with a
//! reply sender, and writes the reply before it reads the next line: a
//! client has one request in flight, its commands run in order, and
//! only its own thread ever waits on its socket, so an idle, slow or
//! vanished client delays no other. The driver thread alone owns the
//! driver. It blocks until a request arrives, under [`Pace::Wall`] only
//! until the next round is due, and under [`Pace::Free`] takes the
//! requests already waiting between chunks of rounds. Commands
//! interleave with round execution at round granularity, which is
//! exactly the granularity at which injected telemetry can take effect
//! anyway.
//!
//! A failed auto-checkpoint never stops the service: it is counted
//! (`han_online_checkpoint_failures_total`, `STATUS`'s
//! `checkpoint_failures=`), recorded as a `checkpoint-failed` flight
//! event, and retried at the next cadence.
//!
//! In replay mode (no listener) the whole telemetry script is ingested
//! up front and the window runs to completion — byte-identical to a
//! socket session that injected the same events before advancing, and
//! to a batch run whose trace carried them from round zero.

use super::driver::OnlineDriver;
use super::ingest::OnlineError;
use super::protocol::{advance_reply, execute, Command, Response};
use crate::simulation::SimulationOutcome;
use han_obs::{Counter, Obs};
use han_workload::telemetry::TelemetryEvent;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

/// How simulated time advances relative to the daemon's wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Run rounds as fast as the host allows, a chunk at a time
    /// (commands still interleave between chunks).
    Free,
    /// Advance only on explicit `ADVANCE` commands — fully
    /// deterministic, the mode the daemon smoke test drives.
    Manual,
    /// One simulated round per `us_per_round` wall microseconds
    /// (`2_000_000` = real time for the paper's 2 s rounds).
    Wall {
        /// Wall microseconds per simulated round.
        us_per_round: u64,
    },
}

/// Everything [`serve`] needs besides the driver.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Socket address to listen on (`None` = replay mode, no socket).
    pub listen: Option<String>,
    /// Telemetry ingested before the loop starts (the `--replay` file).
    pub replay: Vec<TelemetryEvent>,
    /// Where auto- and `CHECKPOINT`-less snapshots go (`None` disables
    /// auto-checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Auto-checkpoint cadence in simulated rounds (`None` disables).
    pub checkpoint_every_rounds: Option<u64>,
    /// How simulated time advances.
    pub pace: Pace,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: None,
            replay: Vec::new(),
            checkpoint_path: None,
            checkpoint_every_rounds: None,
            pace: Pace::Free,
        }
    }
}

/// Rounds advanced per chunk under [`Pace::Free`] — small enough that a
/// client command never waits noticeably, large enough that the loop is
/// not dominated by bookkeeping.
const FREE_CHUNK: u64 = 64;

/// The longest protocol line a client may send, newline excluded. A
/// longer line is answered with a typed `ERR` and its connection is
/// closed, so a client that never sends a newline holds at most this
/// much of the daemon's memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The most connections served at once. The next one is answered with
/// `ERR too many clients` and closed.
pub const MAX_CLIENTS: usize = 16;

/// One protocol line on its way from a connection's thread to the
/// driver thread, with the sender its reply goes back on.
struct Request {
    line: String,
    reply: Sender<Response>,
}

/// Advances the driver to `target`, pausing at every auto-checkpoint
/// boundary to snapshot — so the file on disk always captures an exact
/// cadence multiple, and a kill at any point restores to the last one.
/// A failed save is counted and recorded by the driver; the advance
/// still reaches `target`, and the next boundary tries again.
fn advance_checkpointed(
    driver: &mut OnlineDriver,
    target: u64,
    opts: &ServeOptions,
    last_auto: &mut u64,
) {
    let target = target.min(driver.total_rounds());
    if let (Some(path), Some(every)) = (&opts.checkpoint_path, opts.checkpoint_every_rounds) {
        let every = every.max(1);
        while driver.next_round() < target {
            let boundary = (*last_auto + every).min(target);
            driver.advance_to(boundary);
            if driver.next_round() >= *last_auto + every {
                *last_auto = driver.next_round();
                if let Err(error) = driver.save(path) {
                    driver.record_checkpoint_failure(&error);
                }
            }
        }
    } else {
        driver.advance_to(target);
    }
}

/// Handles one protocol line inside the service loop. Identical to
/// [`respond`](super::protocol::respond) except that `ADVANCE` routes
/// through [`advance_checkpointed`] — manual pacing must honor the
/// auto-checkpoint cadence too, or a killed manually-paced daemon would
/// have nothing to restore from.
fn handle_line(
    driver: &mut OnlineDriver,
    line: &str,
    opts: &ServeOptions,
    last_auto: &mut u64,
) -> Response {
    let result = Command::parse(line).and_then(|cmd| match cmd {
        Command::Advance(rounds) => {
            let target = driver.next_round().saturating_add(rounds);
            advance_checkpointed(driver, target, opts, last_auto);
            Ok(advance_reply(driver))
        }
        other => execute(driver, other),
    });
    match result {
        Ok(response) => response,
        Err(e) => Response {
            line: format!("ERR {e}"),
            shutdown: false,
        },
    }
}

/// Runs the service loop to completion (replay mode) or until a client
/// sends `SHUTDOWN` (socket mode; `serve` returns once `OK bye` is
/// written and every connection's thread has ended). Returns the closed
/// outcome when the simulated window finished, `None` when the daemon
/// was shut down mid-window (state lives on in the last checkpoint).
///
/// # Errors
///
/// [`OnlineError`] from replay ingest or socket setup. Protocol-level
/// errors never surface here — they become `ERR` replies and the loop
/// continues — and neither do failed auto-checkpoints (see the
/// [module docs](self)).
pub fn serve(
    mut driver: OnlineDriver,
    opts: &ServeOptions,
) -> Result<Option<SimulationOutcome>, OnlineError> {
    for event in &opts.replay {
        driver.ingest(*event)?;
    }
    let mut last_auto = driver.next_round();

    let Some(addr) = &opts.listen else {
        // Replay mode: no socket, run the window out.
        let total = driver.total_rounds();
        advance_checkpointed(&mut driver, total, opts, &mut last_auto);
        return Ok(Some(driver.into_outcome()));
    };

    let io_err = |error: std::io::Error| OnlineError::Io {
        path: addr.clone(),
        error: error.to_string(),
    };
    let listener = TcpListener::bind(addr.as_str()).map_err(io_err)?;
    let clients = Clients::new(listener.local_addr().map_err(io_err)?);
    let obs = driver
        .observability()
        .map_or_else(Obs::off, |sink| Obs::new(sink.clone()));
    let (requests, inbox) = mpsc::channel();

    thread::scope(|scope| {
        let (clients, obs) = (&clients, &obs);
        scope.spawn(move || accept(scope, listener, requests, clients, obs));
        let _unwind = CloseOnUnwind(clients);
        drive(&mut driver, opts, &mut last_auto, inbox);
    });

    Ok(driver.finished().then(|| driver.into_outcome()))
}

/// The driver thread (the one that called [`serve`]): serves requests
/// in arrival order and advances simulated time per the pace policy,
/// until a request shuts it down.
fn drive(
    driver: &mut OnlineDriver,
    opts: &ServeOptions,
    last_auto: &mut u64,
    inbox: Receiver<Request>,
) {
    let started = Instant::now();
    loop {
        // Wait for a request as long as no round is due: forever once
        // the window is finished or under manual pacing, until the next
        // round's instant under wall pacing, not at all under free-run.
        let request = match (opts.pace, driver.finished()) {
            (Pace::Manual, _) | (_, true) => inbox.recv().map_err(RecvTimeoutError::from),
            (Pace::Free, false) => inbox.recv_timeout(Duration::ZERO),
            (Pace::Wall { us_per_round }, false) => {
                let due_us = (driver.next_round() + 1).saturating_mul(us_per_round.max(1));
                inbox.recv_timeout(Duration::from_micros(due_us).saturating_sub(started.elapsed()))
            }
        };
        match request {
            Ok(Request { line, reply }) => {
                let response = handle_line(driver, &line, opts, last_auto);
                let shutdown = response.shutdown;
                // A client that vanished mid-request drops its receiver;
                // its reply has nowhere to go.
                let _ = reply.send(response);
                if shutdown {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let target = match opts.pace {
                    Pace::Wall { us_per_round } => {
                        started.elapsed().as_micros() as u64 / us_per_round.max(1)
                    }
                    _ => driver.next_round() + FREE_CHUNK,
                };
                advance_checkpointed(driver, target, opts, last_auto);
            }
            // Every sender is gone only if the acceptor thread ended.
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The acceptor thread: admits each connection to a slot and a thread
/// of its own, or refuses it, until the service closes.
fn accept<'scope>(
    scope: &'scope Scope<'scope, '_>,
    listener: TcpListener,
    requests: Sender<Request>,
    clients: &'scope Clients,
    obs: &Obs,
) {
    // `accept` errors (a connection reset while queued, a transient
    // descriptor shortage) concern one connection, not the service.
    for stream in listener.incoming().flatten() {
        match clients.admit(&stream) {
            Admission::Closed => return,
            Admission::Full => {
                obs.add(Counter::OnlineConnectionsRefused, 1);
                send_err(&stream, "too many clients");
                let _ = stream.shutdown(Shutdown::Write);
            }
            Admission::Slot(slot) => {
                obs.add(Counter::OnlineConnectionsAccepted, 1);
                let requests = requests.clone();
                scope.spawn(move || {
                    let shutdown = converse(&stream, &requests);
                    // Free the slot before the client can see EOF.
                    clients.leave(slot);
                    let _ = stream.shutdown(Shutdown::Write);
                    if shutdown {
                        clients.close();
                    }
                });
            }
        }
    }
}

/// One connection's thread: reads a line, waits for its reply, writes
/// it, and reads the next. Returns whether it wrote the reply to
/// `SHUTDOWN`; any other return means the client left, sent an
/// over-long line, or the service is closing.
fn converse(stream: &TcpStream, requests: &Sender<Request>) -> bool {
    // Replies are one write each; do not hold them back for more.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the limit tells an over-long line from a full one.
        let limit = MAX_LINE_BYTES as u64 + 1;
        if reader
            .by_ref()
            .take(limit)
            .read_until(b'\n', &mut line)
            .is_err()
        {
            return false;
        }
        match line.last() {
            Some(b'\n') => {
                line.pop();
            }
            _ if line.len() > MAX_LINE_BYTES => {
                send_err(stream, &format!("line longer than {MAX_LINE_BYTES} bytes"));
                return false;
            }
            // End of stream; an unterminated last line is not a command.
            _ => return false,
        }
        let (reply, replies) = mpsc::channel();
        let line = String::from_utf8_lossy(&line).into_owned();
        if requests.send(Request { line, reply }).is_err() {
            return false;
        }
        let Ok(Response { mut line, shutdown }) = replies.recv() else {
            return false;
        };
        line.push('\n');
        let written = writer.write_all(line.as_bytes()).is_ok();
        // `SHUTDOWN` closes the service even if its client left unanswered.
        if shutdown || !written {
            return shutdown;
        }
    }
}

/// Tells a client it will not be served further, with a typed `ERR`.
/// Its caller then ends the write half, so the client reads EOF next.
fn send_err(mut writer: &TcpStream, reason: &str) {
    let _ = writer.write_all(format!("ERR {reason}\n").as_bytes());
}

/// Where a connection may be served: the slot it holds, or why not.
enum Admission {
    Slot(usize),
    Full,
    Closed,
}

/// The live connections, one slot each. The acceptor refuses a
/// connection when every slot is taken, and closing the service shuts
/// every slotted socket down, so each thread blocked reading or writing
/// one returns and the scope that runs them can end.
struct Clients {
    slots: Mutex<Slots>,
    /// Where a throwaway connection wakes the acceptor from `accept`.
    wake: SocketAddr,
}

struct Slots {
    streams: Vec<Option<TcpStream>>,
    closed: bool,
}

impl Clients {
    fn new(mut wake: SocketAddr) -> Clients {
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Clients {
            slots: Mutex::new(Slots {
                streams: (0..MAX_CLIENTS).map(|_| None).collect(),
                closed: false,
            }),
            wake,
        }
    }

    /// Every update is one assignment, so a guard a panicking thread
    /// left behind still holds valid slots.
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn admit(&self, stream: &TcpStream) -> Admission {
        let mut slots = self.slots();
        if slots.closed {
            return Admission::Closed;
        }
        let Some(free) = slots.streams.iter().position(Option::is_none) else {
            return Admission::Full;
        };
        match stream.try_clone() {
            Ok(handle) => {
                slots.streams[free] = Some(handle);
                Admission::Slot(free)
            }
            Err(_) => Admission::Full,
        }
    }

    fn leave(&self, slot: usize) {
        self.slots().streams[slot] = None;
    }

    /// Ends the service: later connections are turned away, every live
    /// one is shut down, and the acceptor is woken to see it.
    fn close(&self) {
        let mut slots = self.slots();
        slots.closed = true;
        for stream in slots.streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(slots);
        let _ = TcpStream::connect(self.wake);
    }
}

/// Closes the service if the driver thread panics, so the panic ends
/// `serve` instead of leaving it waiting on threads blocked on sockets.
struct CloseOnUnwind<'a>(&'a Clients);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.close();
        }
    }
}
