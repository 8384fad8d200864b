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

#[test]
fn minutes_past_the_microsecond_clock_fail_while_the_flags_parse() {
    // 307,445,734,562 minutes is the first count whose microseconds do
    // not fit the clock's u64: it must be a bad value in every mode, not a
    // window, a fault time or a checkpoint cadence that wraps around.
    let past = "307445734562";
    let fault = format!("down:3@{past}");
    for mode in [None, Some("serve"), Some("city")] {
        let line = |flag: &str, value: &str| {
            let args: Vec<&str> = mode.into_iter().chain([flag, value]).collect();
            error_line(&args)
        };
        assert_eq!(
            line("--minutes", past),
            format!(
                "error: bad value '{past}' for --minutes \
                 (expected a number of minutes the microsecond clock can hold)"
            ),
            "{mode:?}"
        );
        let faults = line("--faults", &fault);
        assert!(
            faults.starts_with(&format!("error: bad value '{fault}' for --faults")),
            "{mode:?}: {faults}"
        );
    }
    let every = "614891469123651722";
    let args = [
        "serve",
        "--replay",
        "never-read.script",
        "--checkpoint",
        "never-written.ckpt",
        "--checkpoint-every",
        every,
    ];
    assert_eq!(
        error_line(&args),
        format!(
            "error: bad value '{every}' for --checkpoint-every \
             (expected a number of minutes the microsecond clock can hold)"
        )
    );
}
