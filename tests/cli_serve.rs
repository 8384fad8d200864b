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

use common::{connect, free_port, hansim_cmd, roundtrip, wait_report};
use std::io::BufReader;
use std::process::{Child, Stdio};

/// The telemetry every run ingests: two arrivals, a cap change, an
/// early release (refused by the minDCD interlock — visible as
/// `refused=1` in the report).
const TELEMETRY: &str = "arrive:3@2; arrive:5@4; cap:10@6; done:3@8";

const SCENARIO: &[&str] = &["--minutes", "20", "--devices", "8", "--rate", "6"];

fn spawn_daemon(port: u16, extra: &[&str]) -> Child {
    hansim_cmd()
        .arg("serve")
        .args(SCENARIO)
        .args(["--listen", &format!("127.0.0.1:{port}"), "--manual"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns")
}

/// The uninterrupted reference: replay mode ingests the same telemetry
/// up front and runs the window out with no socket.
fn replay_reference(dir: &std::path::Path) -> String {
    let script = dir.join("telemetry.txt");
    std::fs::write(&script, TELEMETRY).expect("write telemetry");
    let out = hansim_cmd()
        .arg("serve")
        .args(SCENARIO)
        .args(["--replay", script.to_str().expect("utf-8 path")])
        .output()
        .expect("replay run");
    assert!(out.status.success(), "replay run failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
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
