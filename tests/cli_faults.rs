//! Golden-output tests of the hansim CLI's fault-plane flags.
//!
//! The headline contract: a run that snapshots itself mid-way
//! (`--checkpoint`) and a second process that resumes from that snapshot
//! (`--restore`) must print **byte-identical** reports — the CLI-level
//! face of the kill-restore-resume bit-identity the checkpoint codec
//! guarantees. Alongside it: `--faults` changes the report (resilience
//! lines appear) but never costs a deadline, and every misuse fails
//! through the typed `CliError`
//! path with a non-zero exit.

use std::process::Command;

fn hansim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hansim"))
        .args(args)
        .output()
        .expect("hansim binary runs")
}

const PLAN: &str = "down:3@10; up:3@40; outage:50-52";

#[test]
fn checkpoint_and_restore_reports_are_byte_identical() {
    let dir = std::env::temp_dir().join("hansim-cli-faults");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("midrun.ckpt");
    let path = path.to_str().expect("utf-8 temp path");
    let base = [
        "--minutes",
        "60",
        "--strategy",
        "coordinated",
        "--faults",
        PLAN,
    ];
    let checkpointed = hansim(&[&base[..], &["--checkpoint", path]].concat());
    assert!(
        checkpointed.status.success(),
        "checkpoint run failed: {checkpointed:?}"
    );
    assert!(
        std::fs::metadata(path)
            .map(|m| m.len() > 0)
            .unwrap_or(false),
        "a non-empty snapshot file must exist"
    );
    let restored = hansim(&[&base[..], &["--restore", path]].concat());
    assert!(
        restored.status.success(),
        "restore run failed: {restored:?}"
    );
    assert!(!checkpointed.stdout.is_empty(), "report must not be empty");
    assert_eq!(
        String::from_utf8_lossy(&checkpointed.stdout),
        String::from_utf8_lossy(&restored.stdout),
        "the resumed run must print a byte-identical report"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn fault_plans_report_resilience() {
    let out = hansim(&[
        "--minutes",
        "60",
        "--strategy",
        "coordinated",
        "--faults",
        PLAN,
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resilience: availability"),
        "a faulted run must report resilience metrics, got:\n{stdout}"
    );
    assert!(stdout.contains("misses 0"), "churn never costs a deadline");
}

#[test]
fn fault_free_runs_print_no_resilience_lines() {
    let out = hansim(&["--minutes", "40", "--strategy", "coordinated"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("resilience"),
        "fault-free reports stay byte-compatible with earlier releases:\n{stdout}"
    );
}

#[test]
fn bad_fault_spec_is_a_typed_cli_error() {
    let out = hansim(&["--faults", "explode:everything"]);
    assert!(!out.status.success(), "bad spec must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad value 'explode:everything' for --faults"),
        "typed CliError::Invalid must name the flag, got:\n{stderr}"
    );
    assert!(stderr.contains("usage:"), "usage line follows the error");
}

#[test]
fn checkpoint_requires_a_single_strategy() {
    let out = hansim(&["--checkpoint", "/tmp/never-written.ckpt"]);
    assert!(!out.status.success(), "compare + checkpoint must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("for --checkpoint") && stderr.contains("single strategy"),
        "typed error must explain the restriction, got:\n{stderr}"
    );
}

#[test]
fn restore_from_garbage_is_a_typed_checkpoint_error() {
    let dir = std::env::temp_dir().join("hansim-cli-faults");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("garbage.ckpt");
    std::fs::write(&path, b"not a checkpoint at all").expect("write garbage");
    let out = hansim(&[
        "--strategy",
        "coordinated",
        "--restore",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(!out.status.success(), "garbage must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint:"),
        "typed CliError::Checkpoint expected, got:\n{stderr}"
    );
    std::fs::remove_file(&path).ok();
}
