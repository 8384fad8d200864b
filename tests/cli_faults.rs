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
//!
//! The corruption sweeps restore seeded single-bit flips of a
//! `HANCKPT1` checkpoint and a `HANSRV01` service snapshot: every run
//! must exit 0 or print a typed `error: …`, and none may panic. CI runs
//! them under `--release` at full width (`cargo test --release --test
//! cli_faults`); the debug tier-1 run flips fewer bits.

use std::path::Path;
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

/// Seeded single-bit flips per format: the full sweep under `--release`,
/// a quick one in debug builds.
const FLIPS: usize = if cfg!(debug_assertions) { 60 } else { 300 };

/// splitmix64: the sweep flips the same bits on every run.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Restores [`FLIPS`] seeded single-bit flips of the file at `path`
/// through `restore` (argv, the flipped file's path appended) and holds
/// the untrusted-bytes contract: every run exits 0 or prints a typed
/// `error: …`, and none panics. Runs that exit 0 with a report other
/// than `reference` are counted and printed but not asserted on —
/// telling those apart needs a checksum in the format.
fn corruption_sweep(label: &str, path: &Path, restore: &[&str], reference: &[u8], seed: u64) {
    let clean = std::fs::read(path).expect("snapshot written");
    let flipped = path.with_extension("flipped");
    let flipped_arg = flipped.to_str().expect("utf-8 temp path");
    let (mut identical, mut typed, mut different) = (0, 0, 0);
    let mut broken = Vec::new();
    let mut state = seed;
    for i in 0..FLIPS {
        let byte = (splitmix(&mut state) % clean.len() as u64) as usize;
        let bit = splitmix(&mut state) % 8;
        let mut bytes = clean.clone();
        bytes[byte] ^= 1 << bit;
        std::fs::write(&flipped, &bytes).expect("write flipped snapshot");
        let out = hansim(&[restore, &[flipped_arg]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        if stderr.contains("panicked") || !(out.status.success() || stderr.contains("error: ")) {
            broken.push(format!("flip {i} (byte {byte}, bit {bit}): {stderr}"));
        } else if !out.status.success() {
            typed += 1;
        } else if out.stdout == reference {
            identical += 1;
        } else {
            different += 1;
        }
    }
    println!(
        "{label}: {FLIPS} single-bit flips of {} bytes: {identical} identical, \
         {typed} typed errors, {different} exited 0 with a different report",
        clean.len()
    );
    assert!(
        broken.is_empty(),
        "{label}: {} of {FLIPS} flips neither succeeded nor failed typed:\n{}",
        broken.len(),
        broken.join("\n")
    );
    std::fs::remove_file(&flipped).ok();
}

#[test]
fn corrupted_checkpoints_fail_typed_and_never_panic() {
    let dir = std::env::temp_dir().join("hansim-cli-faults-sweep-ckpt");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("lossy.ckpt");
    let base = [
        "--minutes",
        "60",
        "--strategy",
        "coordinated",
        "--cp",
        "lossy:0.3",
    ];
    let written = hansim(&[&base[..], &["--checkpoint", path.to_str().expect("utf-8")]].concat());
    assert!(
        written.status.success(),
        "checkpoint run failed: {written:?}"
    );
    corruption_sweep(
        "HANCKPT1",
        &path,
        &[&base[..], &["--restore"]].concat(),
        &written.stdout,
        1,
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_service_snapshots_fail_typed_and_never_panic() {
    let dir = std::env::temp_dir().join("hansim-cli-faults-sweep-srv");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("telemetry.txt");
    std::fs::write(
        &script,
        "arrive:3@2; arrive:5@4; cap:10@6; done:3@8; arrive:7@50",
    )
    .expect("write telemetry");
    let path = dir.join("daemon.snap");
    let base = ["serve", "--minutes", "60", "--cp", "lossy:0.3"];
    // A 40-minute cadence leaves the snapshot two thirds into the window,
    // with one telemetry event still in its future.
    let written = hansim(
        &[
            &base[..],
            &[
                "--replay",
                script.to_str().expect("utf-8"),
                "--checkpoint",
                path.to_str().expect("utf-8"),
                "--checkpoint-every",
                "40",
            ],
        ]
        .concat(),
    );
    assert!(written.status.success(), "snapshot run failed: {written:?}");
    corruption_sweep(
        "HANSRV01",
        &path,
        &[&base[..], &["--restore"]].concat(),
        &written.stdout,
        2,
    );
    std::fs::remove_file(&path).ok();
}
