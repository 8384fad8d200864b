//! One CLI grammar. The seven scenario flags every mode shares
//! (`--rate`, `--workload`, `--cp`, `--minutes`, `--devices`, `--faults`,
//! `--seed`) parse in one place, so a bad or a missing value fails the
//! same way in batch, `serve` and `city` mode: the same `error: …` line
//! on stderr, nothing on stdout and a non-zero exit.

mod common;

use common::hansim;

/// The `error: …` line of a run that must fail without printing to
/// stdout.
fn error_line(args: &[&str]) -> String {
    let out = hansim(args);
    assert!(!out.status.success(), "{args:?} must fail");
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().next().unwrap_or_default();
    assert!(
        line.starts_with("error: "),
        "{args:?}: expected an error line, got: {stderr}"
    );
    line.to_string()
}

#[test]
fn shared_flags_fail_alike_in_every_mode() {
    for flag in [
        "--rate",
        "--workload",
        "--cp",
        "--minutes",
        "--devices",
        "--faults",
        "--seed",
    ] {
        for args in [vec![flag, "x"], vec![flag]] {
            let batch = error_line(&args);
            for mode in ["serve", "city"] {
                let moded: Vec<&str> = std::iter::once(mode).chain(args.iter().copied()).collect();
                assert_eq!(error_line(&moded), batch, "{moded:?}");
            }
        }
    }
}

#[test]
fn zero_homes_is_a_typed_error() {
    for args in [
        &["--homes", "0"][..],
        &["--homes", "0", "--feeder", "tou"],
        &["--homes", "0", "--strategy", "coordinated"],
    ] {
        assert_eq!(
            error_line(args),
            "error: neighborhood must contain at least one home",
            "{args:?}"
        );
    }
}
