//! Golden-output battery of `hansim city --workers N` — the
//! multi-process city runner, driven exactly as an operator would.
//!
//! The headline contract, at the CLI boundary:
//!
//! 1. The printed report is **byte-identical** across `--workers 1`,
//!    `--workers N`, and the in-process default — worker processes are
//!    an execution detail, never a result. This holds for the pretty
//!    report and for the strictest text probe the CLI has, the per-
//!    minute `--csv` series, and it composes with `--cp` and
//!    `--faults`.
//! 2. A **killed worker** produces a typed `CliError` on stderr and a
//!    nonzero exit — no hang (every wait here runs under a deadline),
//!    no partial report on stdout.
//! 3. A **stalled** worker (pipe held open, no bytes) trips the
//!    `--mp-deadline-ms` read deadline, again typed and prompt.
//! 4. `--mp-restart` relaunches a crashed worker once; the recovered
//!    report is byte-identical to the healthy run (worker streams are
//!    pure functions of the spec and partition).
//! 5. Misuse — `--workers 0`, more workers than feeders, malformed
//!    counts — fails through the typed error path, never a panic.
//!
//! Worker sabotage is scripted from outside the protocol via the
//! `HANSIM_CITY_WORKER_CRASH` / `HANSIM_CITY_WORKER_STALL` environment
//! hooks on the hidden `city-worker` subcommand.

mod common;

use common::{assert_bytes_eq, hansim, hansim_cmd, wait_with_deadline};
use std::process::Stdio;
use std::time::Duration;

/// A small city that still exercises multi-feeder reduction and an
/// uneven partition (3 feeders across 2 workers).
fn city_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "city",
        "--feeders",
        "3",
        "--homes-per-feeder",
        "2",
        "--devices",
        "5",
        "--minutes",
        "40",
        "--seed",
        "7",
    ];
    args.extend_from_slice(extra);
    args
}

#[test]
fn report_is_byte_identical_across_worker_counts_and_engines() {
    let in_process = hansim(&city_args(&[]));
    assert!(in_process.status.success(), "in-process run failed");
    assert!(
        !in_process.stdout.is_empty(),
        "the report must not be empty (golden output vacuous otherwise)"
    );
    for workers in ["1", "2", "3"] {
        let fleet = hansim(&city_args(&["--workers", workers]));
        assert!(
            fleet.status.success(),
            "--workers {workers} failed: {}",
            String::from_utf8_lossy(&fleet.stderr)
        );
        assert_bytes_eq(
            &in_process.stdout,
            &fleet.stdout,
            &format!("in-process vs --workers {workers}"),
        );
    }
}

#[test]
fn csv_series_is_worker_invariant_too() {
    let one = hansim(&city_args(&["--csv", "--workers", "1"]));
    let three = hansim(&city_args(&["--csv", "--workers", "3"]));
    let in_process = hansim(&city_args(&["--csv"]));
    assert!(one.status.success() && three.status.success() && in_process.status.success());
    assert!(
        String::from_utf8_lossy(&one.stdout).starts_with("minute,uncoordinated,coordinated"),
        "CSV header missing"
    );
    assert_bytes_eq(&one.stdout, &three.stdout, "CSV --workers 1 vs 3");
    assert_bytes_eq(
        &in_process.stdout,
        &one.stdout,
        "CSV in-process vs --workers 1",
    );
}

#[test]
fn faulted_lossy_city_is_still_worker_invariant() {
    // The hard case: a lossy CP plus a scripted node outage must still
    // cross the process boundary byte-for-byte (per-home seeds derive
    // from the city seed, not from which process runs the home).
    let extra = ["--cp", "lossy:0.2", "--faults", "down:1@5; up:1@20"];
    let mut in_proc_args = city_args(&extra);
    let in_process = hansim(&in_proc_args);
    assert!(in_process.status.success());
    in_proc_args.extend_from_slice(&["--workers", "2"]);
    let fleet = hansim(&in_proc_args);
    assert!(fleet.status.success());
    assert_bytes_eq(
        &in_process.stdout,
        &fleet.stdout,
        "faulted lossy city, in-process vs --workers 2",
    );
}

#[test]
fn killed_worker_is_a_typed_error_with_no_partial_report() {
    let child = hansim_cmd()
        .args(city_args(&["--workers", "2"]))
        .env("HANSIM_CITY_WORKER_CRASH", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hansim spawns");
    let out = wait_with_deadline(child, Duration::from_secs(60));
    assert!(!out.status.success(), "a dead worker must fail the run");
    assert!(
        out.stdout.is_empty(),
        "no partial report may reach stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: city worker fleet: worker 1"),
        "expected the typed WorkerError diagnostic, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "a worker death must not panic the parent: {stderr}"
    );
}

#[test]
fn stalled_worker_trips_the_read_deadline() {
    let child = hansim_cmd()
        .args(city_args(&["--workers", "2", "--mp-deadline-ms", "500"]))
        .env("HANSIM_CITY_WORKER_STALL", "0")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hansim spawns");
    // The deadline is 500ms; the stall is an hour. Finishing inside the
    // wait bound *is* the no-hang assertion.
    let out = wait_with_deadline(child, Duration::from_secs(30));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("read deadline"),
        "expected the Deadline diagnostic, got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no partial report on a deadline");
}

#[test]
fn mp_restart_recovers_a_crashed_worker_byte_identically() {
    let reference = hansim(&city_args(&["--workers", "2"]));
    assert!(reference.status.success());

    let flag = std::env::temp_dir().join("hansim-cli-city-mp-restart.flag");
    let _ = std::fs::remove_file(&flag);
    let child = hansim_cmd()
        .args(city_args(&["--workers", "2", "--mp-restart"]))
        .env(
            "HANSIM_CITY_WORKER_CRASH",
            format!("1:once:{}", flag.display()),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hansim spawns");
    let out = wait_with_deadline(child, Duration::from_secs(60));
    let _ = std::fs::remove_file(&flag);
    assert!(
        out.status.success(),
        "--mp-restart must recover the crash-once worker: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_bytes_eq(
        &reference.stdout,
        &out.stdout,
        "healthy fleet vs crash-once + --mp-restart",
    );
}

#[test]
fn worker_misuse_fails_through_typed_errors() {
    // Zero workers and more workers than feeders: the typed
    // BadWorkerCount diagnostic, mirroring the shard-count rule.
    for (workers, needle) in [
        ("0", "cannot run 3 feeder(s) across 0 worker process(es)"),
        ("9", "cannot run 3 feeder(s) across 9 worker process(es)"),
    ] {
        let out = hansim(&city_args(&["--workers", workers]));
        assert!(!out.status.success(), "--workers {workers} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "expected the BadWorkerCount diagnostic for --workers {workers}, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "misuse must not panic: {stderr}"
        );
    }

    // Malformed counts fail through the usage path like every flag.
    for value in ["many", "-1", "2.5"] {
        let out = hansim(&city_args(&["--workers", value]));
        assert!(!out.status.success(), "--workers {value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: bad value '{value}' for --workers")),
            "expected a typed diagnostic for --workers {value}, got: {stderr}"
        );
    }
}
