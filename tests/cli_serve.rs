//! Daemon smoke tests of `hansim serve` — the online service mode,
//! end to end over a real loopback socket.
//!
//! The headline contract, exercised exactly as an operator would hit
//! it: serve a scenario on loopback, inject telemetry over the wire,
//! query `STATUS` / `SCHEDULE` / `FEEDER`, let the auto-checkpoint
//! cadence snapshot the state, **kill the daemon with no warning**,
//! restore a fresh process from the last snapshot, and finish the
//! window. The finished report must be **byte-identical** to an
//! uninterrupted replay-mode run of the same telemetry.

mod common;

use common::{connect, free_port, hansim_cmd, roundtrip, wait_report, wait_with_deadline};
use smart_han::core::online::MAX_CLIENTS;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

/// The telemetry every run ingests: two arrivals, a cap change, an
/// early release (refused by the minDCD interlock — visible as
/// `refused=1` in the report).
const TELEMETRY: &str = "arrive:3@2; arrive:5@4; cap:10@6; done:3@8";

const SCENARIO: &[&str] = &["--minutes", "20", "--devices", "8", "--rate", "6"];

fn spawn_daemon(port: u16, extra: &[&str]) -> Child {
    spawn_serve(port, &[SCENARIO, &["--manual"], extra].concat())
}

/// A daemon listening on `port` with exactly `args` (no implied pace).
fn spawn_serve(port: u16, args: &[&str]) -> Child {
    hansim_cmd()
        .arg("serve")
        .args(args)
        .args(["--listen", &format!("127.0.0.1:{port}")])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns")
}

/// The uninterrupted reference: replay mode ingests the same telemetry
/// up front and runs the window out with no socket.
fn replay_reference(dir: &std::path::Path) -> String {
    replay_report(dir, SCENARIO, TELEMETRY)
}

/// The report of a replay-mode run of `args` that ingests `telemetry`.
fn replay_report(dir: &std::path::Path, args: &[&str], telemetry: &str) -> String {
    let script = dir.join("telemetry.txt");
    std::fs::write(&script, telemetry).expect("write telemetry");
    let out = hansim_cmd()
        .arg("serve")
        .args(args)
        .args(["--replay", script.to_str().expect("utf-8 path")])
        .output()
        .expect("replay run");
    assert!(out.status.success(), "replay run failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// An empty temporary directory for one test (tests run in parallel).
fn fresh_temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// How long a client waits for any one reply. A daemon that leaves a
/// client unanswered fails the test at this deadline instead of hanging.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// A connection whose reads give up after [`REPLY_DEADLINE`].
fn client(port: u16) -> BufReader<TcpStream> {
    let stream = connect(port);
    stream
        .set_read_timeout(Some(REPLY_DEADLINE))
        .expect("read timeout");
    BufReader::new(stream)
}

/// Reads one reply line without sending anything.
fn read_reply(client: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    client.read_line(&mut line).expect("read reply");
    line.trim_end().to_string()
}

/// `STATUS` until it reports `finished=true`.
fn await_finished(client: &mut BufReader<TcpStream>) -> String {
    let started = Instant::now();
    loop {
        let status = roundtrip(client, "STATUS");
        assert!(status.starts_with("OK round="), "status: {status}");
        if status.contains(" finished=true") {
            return status;
        }
        assert!(
            started.elapsed() < REPLY_DEADLINE,
            "window never finished: {status}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `SHUTDOWN` on `client`, then the daemon's report once it exits 0.
fn shut_down(mut client: BufReader<TcpStream>, daemon: Child) -> String {
    assert_eq!(roundtrip(&mut client, "SHUTDOWN"), "OK bye");
    let out = wait_with_deadline(daemon, REPLY_DEADLINE);
    assert!(out.status.success(), "daemon failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// Asserts the daemon closed `client`'s connection: no more bytes, and
/// EOF (or a reset, which Linux sends when the daemon closes a
/// connection with bytes still unread).
fn assert_closed(client: &mut BufReader<TcpStream>) {
    let mut rest = Vec::new();
    match client.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "bytes after the last reply: {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
}

#[test]
fn daemon_kill_and_restore_report_is_byte_identical() {
    let dir = std::env::temp_dir().join("hansim-cli-serve");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck = dir.join("daemon.ck");
    let ck_str = ck.to_str().expect("utf-8 path");
    let _ = std::fs::remove_file(&ck);

    let reference = replay_reference(&dir);
    assert!(
        reference.starts_with("serve report: rounds=601 "),
        "unexpected reference report: {reference}"
    );

    // Phase 1: daemon with a 5-simulated-minute auto-checkpoint cadence.
    let port = free_port();
    let mut daemon = spawn_daemon(port, &["--checkpoint", ck_str, "--checkpoint-every", "5"]);
    let mut client = BufReader::new(connect(port));

    let inject = roundtrip(&mut client, &format!("INJECT {TELEMETRY}"));
    assert_eq!(inject, "OK ingested=4 round=0", "inject reply");

    let status = roundtrip(&mut client, "STATUS");
    assert!(
        status.starts_with("OK round=0/601 "),
        "status reply: {status}"
    );
    let schedule = roundtrip(&mut client, "SCHEDULE 3");
    assert!(
        schedule.starts_with("OK node=3 "),
        "schedule reply: {schedule}"
    );
    let feeder = roundtrip(&mut client, "FEEDER");
    assert!(feeder.starts_with("OK cap_kw="), "feeder reply: {feeder}");

    // Advance past two auto-checkpoint boundaries (5 min = 150 rounds).
    let advance = roundtrip(&mut client, "ADVANCE 400");
    assert_eq!(advance, "OK round=400/601 finished=false");
    assert!(
        std::fs::metadata(&ck).map(|m| m.len() > 0).unwrap_or(false),
        "auto-checkpoint must exist after crossing the cadence"
    );

    // Errors are typed, and the connection survives them.
    let err = roundtrip(&mut client, "SCHEDULE 99");
    assert!(err.starts_with("ERR node 99 outside the fleet"), "{err}");
    let stale = roundtrip(&mut client, "INJECT arrive:1@2");
    assert!(stale.starts_with("ERR stale event"), "{stale}");

    // Phase 2: kill without warning; the last auto-checkpoint (round
    // 300) is all that survives.
    daemon.kill().expect("kill daemon");
    let _ = daemon.wait();

    // Phase 3: restore a fresh daemon and run the window out.
    let port = free_port();
    let daemon = spawn_daemon(port, &["--restore", ck_str]);
    let mut client = BufReader::new(connect(port));
    let status = roundtrip(&mut client, "STATUS");
    assert!(
        status.starts_with("OK round=300/601 "),
        "restored at the last auto-checkpoint: {status}"
    );
    let advance = roundtrip(&mut client, "ADVANCE end");
    assert_eq!(advance, "OK round=601/601 finished=true");
    assert_eq!(roundtrip(&mut client, "SHUTDOWN"), "OK bye");
    drop(client);

    let report = wait_report(daemon);
    assert_eq!(
        report, reference,
        "kill/restore report must byte-match the uninterrupted run"
    );
}

#[test]
fn replay_accepts_rate_names() {
    // Serve mode parses `--rate` like batch and city mode: a named paper
    // regime runs exactly the scenario its number does (high = 30/h).
    let dir = std::env::temp_dir().join("hansim-cli-serve-rates");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("telemetry.txt");
    std::fs::write(&script, TELEMETRY).expect("write telemetry");
    let script = script.to_str().expect("utf-8 path");

    let mut reports = Vec::new();
    for rate in ["high", "30"] {
        let out = hansim_cmd()
            .arg("serve")
            .args(["--minutes", "20", "--devices", "8", "--rate", rate])
            .args(["--replay", script])
            .output()
            .expect("replay run");
        assert!(
            out.status.success(),
            "replay at --rate {rate} failed: {out:?}"
        );
        reports.push(String::from_utf8(out.stdout).expect("utf-8 report"));
    }
    assert!(
        reports[0].starts_with("serve report: rounds=601 "),
        "unexpected report: {}",
        reports[0]
    );
    assert_eq!(
        reports[0], reports[1],
        "--rate high must replay exactly like --rate 30"
    );
}

#[test]
fn serve_misuse_fails_through_typed_errors() {
    // No driver at all: serve needs --listen, --replay or --restore.
    let out = hansim_cmd()
        .arg("serve")
        .args(SCENARIO)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--listen"), "names the missing flag: {err}");

    // Auto-cadence without a snapshot path.
    let out = hansim_cmd()
        .arg("serve")
        .args(SCENARIO)
        .args(["--listen", "127.0.0.1:1", "--checkpoint-every", "5"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--checkpoint"),
        "names the missing flag: {err}"
    );

    // Replaying telemetry that overruns the window is a typed error.
    let dir = std::env::temp_dir().join("hansim-cli-serve-misuse");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("late.txt");
    std::fs::write(&script, "arrive:1@500").expect("write telemetry");
    let out = hansim_cmd()
        .arg("serve")
        .args(SCENARIO)
        .args(["--replay", script.to_str().expect("utf-8 path")])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("beyond the simulated horizon"), "{err}");
}

#[test]
fn restore_into_a_different_fleet_is_a_typed_config_mismatch() {
    // A snapshot of a 26-device daemon restored into a 10-device one:
    // the fingerprint check runs before any state is rebuilt, so this is
    // the typed mismatch batch `--restore` reports, not a panic.
    let dir = std::env::temp_dir().join("hansim-cli-serve-mismatch");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("telemetry.txt");
    std::fs::write(&script, TELEMETRY).expect("write telemetry");
    let snap = dir.join("fleet26.snap");
    let snap_str = snap.to_str().expect("utf-8 path");
    let scenario = |devices: &'static str| ["--minutes", "20", "--devices", devices, "--rate", "6"];
    let out = hansim_cmd()
        .arg("serve")
        .args(scenario("26"))
        .args(["--replay", script.to_str().expect("utf-8 path")])
        .args(["--checkpoint", snap_str, "--checkpoint-every", "5"])
        .output()
        .expect("snapshot run");
    assert!(out.status.success(), "snapshot run failed: {out:?}");

    let out = hansim_cmd()
        .arg("serve")
        .args(scenario("10"))
        .args(["--restore", snap_str])
        .output()
        .expect("restore run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a mismatched restore must fail");
    assert!(!err.contains("panicked"), "typed error, not a panic: {err}");
    assert!(
        err.contains("different configuration"),
        "names the mismatch: {err}"
    );
}

/// A directory that does not exist, so every save into it fails.
fn unwritable_checkpoint(dir: &std::path::Path) -> String {
    let path = dir.join("no-such-dir").join("ck.snap");
    path.to_str().expect("utf-8 path").to_string()
}

/// One hour of 8 devices, auto-checkpointing every simulated minute
/// into a directory that does not exist: 60 cadences, 60 failed saves.
const FAILING_SCENARIO: &[&str] = &["--minutes", "60", "--devices", "8"];

#[test]
fn failed_auto_checkpoints_keep_a_free_run_daemon_running() {
    let dir = fresh_temp_dir("hansim-cli-serve-ckfail-free");
    let ck = unwritable_checkpoint(&dir);
    let reference = replay_report(&dir, FAILING_SCENARIO, "");

    let port = free_port();
    let args = [
        FAILING_SCENARIO,
        &["--checkpoint", &ck, "--checkpoint-every", "1"],
    ]
    .concat();
    let daemon = spawn_serve(port, &args);
    let mut client = client(port);
    let status = await_finished(&mut client);
    assert!(
        status.ends_with(" checkpoint_failures=60"),
        "every cadence counted: {status}"
    );
    let header = roundtrip(&mut client, "METRICS");
    let lines: usize = header
        .strip_prefix("OK metrics lines=")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("metrics header: {header}"));
    let body: Vec<String> = (0..lines).map(|_| read_reply(&mut client)).collect();
    assert!(
        body.iter()
            .any(|l| l == "han_online_checkpoint_failures_total 60"),
        "registry counts the failures"
    );
    let header = roundtrip(&mut client, "DUMP");
    let events: usize = header
        .strip_prefix("OK flight events=")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("dump header: {header}"));
    let dump: Vec<String> = (0..events).map(|_| read_reply(&mut client)).collect();
    assert_eq!(
        dump.iter()
            .filter(|l| l.contains("\"kind\":\"checkpoint-failed\""))
            .count(),
        60,
        "one flight event per failed save"
    );
    // A CHECKPOINT the client asked for still reports its failure.
    let explicit = roundtrip(&mut client, &format!("CHECKPOINT {ck}"));
    assert!(explicit.starts_with("ERR "), "{explicit}");
    assert_eq!(shut_down(client, daemon), reference);

    // Replay mode runs the window out too, and names the failures.
    let script = dir.join("telemetry.txt");
    let out = hansim_cmd()
        .arg("serve")
        .args(&args)
        .args(["--replay", script.to_str().expect("utf-8 path")])
        .output()
        .expect("replay run");
    assert!(out.status.success(), "replay run failed: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), reference);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("60 auto-checkpoint(s) failed"), "{err}");
}

#[test]
fn failed_auto_checkpoints_do_not_cut_a_manual_advance_short() {
    let dir = fresh_temp_dir("hansim-cli-serve-ckfail-manual");
    let ck = unwritable_checkpoint(&dir);
    let reference = replay_report(&dir, FAILING_SCENARIO, "");

    let port = free_port();
    let args = [
        FAILING_SCENARIO,
        &["--manual", "--checkpoint", &ck, "--checkpoint-every", "1"],
    ]
    .concat();
    let daemon = spawn_serve(port, &args);
    let mut client = client(port);
    assert_eq!(
        roundtrip(&mut client, "ADVANCE 100"),
        "OK round=100/1801 finished=false"
    );
    let status = roundtrip(&mut client, "STATUS");
    assert!(
        status.ends_with(" checkpoint_failures=3"),
        "cadences at rounds 30, 60 and 90: {status}"
    );
    let explicit = roundtrip(&mut client, &format!("CHECKPOINT {ck}"));
    assert!(explicit.starts_with("ERR "), "{explicit}");
    assert_eq!(
        roundtrip(&mut client, "ADVANCE end"),
        "OK round=1801/1801 finished=true"
    );
    let status = roundtrip(&mut client, "STATUS");
    assert!(status.ends_with(" checkpoint_failures=60"), "{status}");
    assert_eq!(shut_down(client, daemon), reference);
}

#[test]
fn packet_cp_daemon_kill_and_restore_report_is_byte_identical() {
    // Serve parses --cp like batch and city mode, and a packet-level CP
    // survives kill and restore like the ideal one.
    let dir = fresh_temp_dir("hansim-cli-serve-packet");
    let ck = dir.join("daemon.ck");
    let ck = ck.to_str().expect("utf-8 path");
    let scenario = [
        "--minutes",
        "10",
        "--devices",
        "8",
        "--rate",
        "6",
        "--cp",
        "packet",
    ];
    let reference = replay_report(&dir, &scenario, TELEMETRY);
    assert!(
        reference.starts_with("serve report: rounds=301 "),
        "{reference}"
    );

    let port = free_port();
    let manual = [&scenario[..], &["--manual"]].concat();
    let args = [
        &manual[..],
        &["--checkpoint", ck, "--checkpoint-every", "5"],
    ]
    .concat();
    let mut daemon = spawn_serve(port, &args);
    let mut c = client(port);
    assert_eq!(
        roundtrip(&mut c, &format!("INJECT {TELEMETRY}")),
        "OK ingested=4 round=0"
    );
    assert_eq!(
        roundtrip(&mut c, "ADVANCE 200"),
        "OK round=200/301 finished=false"
    );
    daemon.kill().expect("kill daemon");
    let _ = daemon.wait();

    let port = free_port();
    let daemon = spawn_serve(port, &[&manual[..], &["--restore", ck]].concat());
    let mut c = client(port);
    let status = roundtrip(&mut c, "STATUS");
    assert!(status.starts_with("OK round=150/301 "), "{status}");
    assert_eq!(
        roundtrip(&mut c, "ADVANCE end"),
        "OK round=301/301 finished=true"
    );
    assert_eq!(shut_down(c, daemon), reference);
}

// ---- adversarial clients and pacing ------------------------------------
//
// Each case ends the way an operator would: a well-behaved client is
// answered, and SHUTDOWN stops the daemon cleanly.

#[test]
fn an_idle_client_does_not_delay_another() {
    let port = free_port();
    let daemon = spawn_daemon(port, &[]);
    let _idle = client(port);
    let mut busy = client(port);
    let status = roundtrip(&mut busy, "STATUS");
    assert!(status.starts_with("OK round=0/601 "), "{status}");
    shut_down(busy, daemon);
}

#[test]
fn a_client_that_stops_reading_gets_every_reply_and_stalls_no_other() {
    // Enough replies to fill both socket buffers, so the daemon's write
    // blocks while the client is not reading.
    let (lines, stall) = if cfg!(debug_assertions) {
        (4_000, Duration::from_millis(500))
    } else {
        (40_000, Duration::from_secs(2))
    };
    let port = free_port();
    let daemon = spawn_daemon(port, &[]);
    let mut stalled = client(port);
    let started = Instant::now();
    let mut pipe = stalled.get_ref().try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || {
        pipe.write_all("STATUS\n".repeat(lines).as_bytes())
            .expect("pipeline requests");
    });

    let mut other = client(port);
    let status = roundtrip(&mut other, "STATUS");
    assert!(status.starts_with("OK round=0/601 "), "{status}");
    std::thread::sleep(stall.saturating_sub(started.elapsed()));

    for i in 0..lines {
        let reply = read_reply(&mut stalled);
        assert!(reply.starts_with("OK round=0/601 "), "reply {i}: {reply}");
    }
    writer.join().expect("writer thread");
    shut_down(other, daemon);
}

#[test]
fn an_over_long_line_and_one_client_too_many_are_refused() {
    let port = free_port();
    let daemon = spawn_daemon(port, &[]);

    let mut flood = client(port);
    let mut pipe = flood.get_ref().try_clone().expect("clone stream");
    // The daemon closes the connection mid-flood; the write then fails.
    let writer = std::thread::spawn(move || {
        let _ = pipe.write_all(&vec![b'x'; 1 << 20]);
    });
    assert_eq!(read_reply(&mut flood), "ERR line longer than 65536 bytes");
    assert_closed(&mut flood);
    writer.join().expect("writer thread");

    let mut idle: Vec<_> = (0..MAX_CLIENTS).map(|_| client(port)).collect();
    let mut extra = client(port);
    assert_eq!(read_reply(&mut extra), "ERR too many clients");
    assert_closed(&mut extra);

    let status = roundtrip(&mut idle[0], "STATUS");
    assert!(status.starts_with("OK round=0/601 "), "{status}");
    shut_down(idle.swap_remove(0), daemon);
}

#[test]
fn a_non_utf8_line_is_an_error_reply_not_a_dropped_client() {
    let port = free_port();
    let daemon = spawn_daemon(port, &[]);
    let mut c = client(port);
    c.get_mut().write_all(b"STAT\xffUS\n").expect("send bytes");
    let reply = read_reply(&mut c);
    assert!(
        reply.starts_with("ERR bad command: unknown command"),
        "{reply}"
    );
    let status = roundtrip(&mut c, "STATUS");
    assert!(status.starts_with("OK round=0/601 "), "{status}");
    shut_down(c, daemon);
}

#[test]
fn two_clients_take_turns_and_finish_with_the_replay_report() {
    let dir = fresh_temp_dir("hansim-cli-serve-turns");
    let reference = replay_reference(&dir);
    let port = free_port();
    let daemon = spawn_daemon(port, &[]);
    let mut injector = client(port);
    let mut advancer = client(port);
    // Each event is ingested before the round that absorbs it runs.
    let turns = [
        (
            "arrive:3@2",
            0,
            "ADVANCE 30",
            "OK round=30/601 finished=false",
        ),
        (
            "arrive:5@4",
            30,
            "ADVANCE 60",
            "OK round=90/601 finished=false",
        ),
        (
            "cap:10@6",
            90,
            "ADVANCE 60",
            "OK round=150/601 finished=false",
        ),
        (
            "done:3@8",
            150,
            "ADVANCE end",
            "OK round=601/601 finished=true",
        ),
    ];
    for (event, round, advance, advanced) in turns {
        assert_eq!(
            roundtrip(&mut injector, &format!("INJECT {event}")),
            format!("OK ingested=1 round={round}")
        );
        assert_eq!(roundtrip(&mut advancer, advance), advanced);
    }
    assert_eq!(shut_down(injector, daemon), reference);
}

#[test]
fn a_half_closed_client_gets_every_reply() {
    // What the README's `nc` here-doc does: send every line, close the
    // write half, read until the daemon closes.
    let port = free_port();
    let daemon = spawn_daemon(port, &[]);
    let mut c = client(port);
    c.get_mut()
        .write_all(
            format!("INJECT {TELEMETRY}\nSTATUS\nSCHEDULE 3\nFEEDER\nADVANCE 400\n").as_bytes(),
        )
        .expect("send script");
    c.get_ref().shutdown(Shutdown::Write).expect("half-close");
    let mut replies = String::new();
    c.read_to_string(&mut replies).expect("replies until EOF");
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), 5, "{replies:?}");
    assert_eq!(replies[0], "OK ingested=4 round=0");
    assert!(replies[1].starts_with("OK round=0/601 "), "{}", replies[1]);
    assert!(replies[2].starts_with("OK node=3 "), "{}", replies[2]);
    assert!(replies[3].starts_with("OK cap_kw="), "{}", replies[3]);
    assert_eq!(replies[4], "OK round=400/601 finished=false");

    let mut next = client(port);
    let status = roundtrip(&mut next, "STATUS");
    assert!(status.starts_with("OK round=400/601 "), "{status}");
    shut_down(next, daemon);
}

#[test]
fn free_run_and_wall_paced_daemons_finish_with_the_replay_report() {
    let dir = fresh_temp_dir("hansim-cli-serve-paced");
    let reference = replay_report(&dir, SCENARIO, "");
    for pace in [&[][..], &["--pace-us", "100"][..]] {
        let port = free_port();
        let daemon = spawn_serve(port, &[SCENARIO, pace].concat());
        let mut c = client(port);
        let status = await_finished(&mut c);
        assert!(
            status.starts_with("OK round=601/601 "),
            "{pace:?}: {status}"
        );
        assert_eq!(shut_down(c, daemon), reference, "pace {pace:?}");
    }
}
