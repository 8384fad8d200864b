//! Golden-output battery of the `hansim city` subcommand.
//!
//! The CLI face of the city layer's headline contract:
//!
//! 1. The printed report is **byte-identical** for every valid `--shards`
//!    value (the shard count is an execution detail, never a result).
//! 2. `--engine` is an unknown flag in city mode, as in batch and serve
//!    mode — the synchronous round loop is the only executor, so there is
//!    no backend to choose.
//! 3. Misuse (zero feeders, more shards than feeders, malformed counts)
//!    fails through the typed error path with a non-zero exit and a
//!    one-line `error:` diagnostic — never a panic backtrace.

mod common;

use common::{assert_bytes_eq, assert_engine_flag_rejected, hansim};

/// A small city that still exercises multi-feeder reduction: 3 feeders
/// x 2 homes x 5 devices for 40 minutes.
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
fn report_is_byte_identical_across_shard_counts() {
    let one = hansim(&city_args(&["--shards", "1"]));
    assert!(one.status.success(), "1-shard run failed: {one:?}");
    assert!(
        !one.stdout.is_empty(),
        "the report must not be empty (golden output vacuous otherwise)"
    );
    for shards in ["2", "3"] {
        let sharded = hansim(&city_args(&["--shards", shards]));
        assert!(sharded.status.success(), "{shards}-shard run failed");
        assert_bytes_eq(
            &one.stdout,
            &sharded.stdout,
            &format!("--shards 1 vs --shards {shards}"),
        );
    }
    // The automatic partition (no --shards) prints the same report too.
    let auto = hansim(&city_args(&[]));
    assert!(auto.status.success());
    assert_bytes_eq(&one.stdout, &auto.stdout, "--shards 1 vs auto shards");
}

#[test]
fn csv_series_is_shard_invariant_too() {
    // The raw per-minute series is the strictest text probe the CLI has.
    let one = hansim(&city_args(&["--csv", "--shards", "1"]));
    let three = hansim(&city_args(&["--csv", "--shards", "3"]));
    assert!(one.status.success() && three.status.success());
    assert!(
        String::from_utf8_lossy(&one.stdout).starts_with("minute,uncoordinated,coordinated"),
        "CSV header missing"
    );
    assert_bytes_eq(&one.stdout, &three.stdout, "CSV --shards 1 vs --shards 3");
}

#[test]
fn engine_flag_is_rejected_with_a_typed_error() {
    // With and without a value; batch and serve mode are covered by
    // `tests/cli_engine.rs` with the same assertion.
    assert_engine_flag_rejected(&[
        &["city", "--engine", "event"],
        &["city", "--feeders", "2", "--engine"],
    ]);
}

#[test]
fn zero_feeders_is_a_typed_scenario_error() {
    for args in [
        &["city", "--feeders", "0"][..],
        &["city", "--homes-per-feeder", "0"][..],
    ] {
        let out = hansim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: city must contain at least one feeder"),
            "expected the EmptyCity diagnostic for {args:?}, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "misuse must not panic: {stderr}"
        );
    }
}

#[test]
fn oversized_shard_count_is_a_typed_scenario_error() {
    let out = hansim(&["city", "--feeders", "2", "--shards", "5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot partition 2 feeder(s) across 5 shards"),
        "expected the TooManyShards diagnostic, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "misuse must not panic: {stderr}"
    );
}

#[test]
fn malformed_counts_fail_through_the_usage_path() {
    for (flag, value) in [
        ("--feeders", "many"),
        ("--homes-per-feeder", "-1"),
        ("--shards", "2.5"),
    ] {
        let out = hansim(&["city", flag, value]);
        assert!(!out.status.success(), "{flag} {value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: bad value '{value}' for {flag}")),
            "expected a typed diagnostic for {flag} {value}, got: {stderr}"
        );
    }
}
